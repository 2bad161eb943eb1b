"""The serve-mixed workload: a closed loop against ``repro serve``.

Set-up publishes one artifact (regalloc-spec's campaign with
``--publish``), takes references from outside the daemon, boots
``python -m repro serve --port 0 --workers 2`` and requests every hot
key once.  The load is two connections from this process, each sending
its next request when the last one is answered: callers of this daemon
(``repro submit``, a fleet coordinator) wait for replies, and the box
has two processors.

A round is one calibration slice and then one block of the schedule.
Every block holds the same mix by count, 70 % ``evaluate`` over the hot
keys, 20 % ``evaluate-batch`` of four candidates never sent before, 10 %
``compile`` with ``run`` of a suite source, in an order drawn from
``--seed``; so the median request is transport, the 90th percentile is
compute, and throughput is both.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import select
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import ledger
from campaign import CAMPAIGNS, champion_speedup, op_argv
from driver import (BENCH, CONFIG, REF_SLICE_S, SRC, BenchError, Clock,
                    Outcome, canonical, child_problems, program_command,
                    run_child, run_program, start)
from stats import median, percentile

#: One block of the schedule: (kind, how many).
BLOCK = (("evaluate", 14), ("batch", 4), ("compile", 2))
BATCH_ITEMS = 4
CONNECTIONS = 2
#: Share of batch items scored again outside the daemon.
SAMPLE_EVERY = 20

@dataclass(frozen=True)
class Inputs:
    """The frozen inputs under bench/data, checked against the SHA-256
    recorded in config.json."""

    case: str
    programs: tuple
    compile_programs: tuple
    candidates: tuple

    @classmethod
    def load(cls) -> "Inputs":
        blobs = {}
        for name, wanted in CONFIG["data_sha256"].items():
            blobs[name] = (BENCH / "data" / name).read_bytes()
            if hashlib.sha256(blobs[name]).hexdigest() != wanted:
                raise BenchError(f"bench/data/{name} does not match the "
                                 "SHA-256 in bench/config.json")
        keys = json.loads(blobs["hot_keys.json"])
        lines = blobs["candidates_regalloc.txt"].decode().splitlines()
        return cls(keys["case"], tuple(keys["programs"]),
                   tuple(keys["compile_programs"]), tuple(lines))

    @property
    def hot_keys(self) -> list[tuple[str, bool]]:
        """(program, under the artifact?) for every hot key."""
        return [(program, deployed) for program in self.programs
                for deployed in (False, True)]


@dataclass(frozen=True)
class Request:
    kind: str
    key: int = 0          # evaluate: which hot key
    items: tuple = ()     # batch: ((candidate index, program), ...)
    program: str = ""     # compile: which suite source


def plan_block(seed: int, block: int, inputs: Inputs) -> list[Request]:
    """The requests of one block: a pure function of the seed."""
    rng = random.Random(f"serve-mixed:{seed}:{block}")
    count = len(inputs.candidates)
    offset = (seed * 7919) % count
    batches = dict(BLOCK)["batch"]
    requests = []
    for kind, how_many in BLOCK:
        for serial in range(how_many):
            if kind == "evaluate":
                requests.append(Request(
                    kind, key=rng.randrange(len(inputs.hot_keys))))
            elif kind == "batch":
                first = offset + BATCH_ITEMS * (block * batches + serial)
                requests.append(Request(kind, items=tuple(
                    ((first + i) % count,
                     inputs.programs[(first + i) % len(inputs.programs)])
                    for i in range(BATCH_ITEMS))))
            else:
                requests.append(Request(
                    kind, program=rng.choice(inputs.compile_programs)))
    rng.shuffle(requests)
    return requests


@dataclass
class Record:
    """One answered (or failed) request."""

    kind: str
    latency_s: float = 0.0  # filled in by Load.perform
    evaluations: int = 0
    problem: str | None = None
    job: dict | None = None
    polls: int = 0
    sample: list = field(default_factory=list)


class Connection:
    """One of the load's connections: a ``ServeClient`` for the job
    endpoints (its 50 ms poll is part of the product) and a keep-alive
    ``http.client`` connection for the batch stream, as a coordinator
    holds one, so the daemon's handler thread keeps its harness."""

    def __init__(self, url: str) -> None:
        from repro.serve.client import ServeClient

        class PollCounting(ServeClient):
            polls = 0

            def job(self, job_id):
                self.polls += 1
                return super().job(job_id)

        self.client = PollCounting(url, timeout=60.0)
        host, _, port = url.removeprefix("http://").rpartition(":")
        self._address = (host, int(port))
        self._http: http.client.HTTPConnection | None = None
        self.shed = 0

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None

    def job(self, kind: str, params: dict) -> tuple[dict, int]:
        before = self.client.polls
        submitted = self.client.submit(kind, params)
        job = self.client.wait(submitted["job_id"], timeout=60.0)
        return job, self.client.polls - before

    def batch(self, body: dict) -> list[dict]:
        """POST /v1/evaluate-batch and read the NDJSON stream (schema 1
        of docs/SERVING.md) to its ``done`` marker."""
        data = json.dumps(body).encode()
        for _attempt in range(6):
            if self._http is None:
                self._http = http.client.HTTPConnection(*self._address,
                                                        timeout=60.0)
            self._http.request("POST", "/v1/evaluate-batch", body=data,
                               headers={"Content-Type": "application/json"})
            response = self._http.getresponse()
            if response.status == 429:
                response.read()
                self.shed += 1
                time.sleep(float(response.headers.get("Retry-After", 1)))
                continue
            if response.status != 200:
                raise BenchError(f"evaluate-batch answered "
                                 f"{response.status}: {response.read()!r}")
            records = []
            while True:
                line = response.readline()
                if not line:
                    self.close()
                    raise BenchError("batch stream ended without its "
                                     "done marker")
                record = json.loads(line)
                if record.get("done"):
                    response.read()
                    return records
                records.append(record)
        raise BenchError("evaluate-batch shed six times in a row")


class Load:
    """Everything a request needs to be sent and checked."""

    def __init__(self, inputs: Inputs, artifact_id: str, references: dict,
                 sources: dict) -> None:
        self.inputs = inputs
        self.artifact_id = artifact_id
        self.references = references
        self.sources = sources
        self._batch_items = 0
        self._lock = threading.Lock()

    def evaluate_params(self, key: int) -> dict:
        program, deployed = self.inputs.hot_keys[key]
        params = {"benchmark": program, "case": self.inputs.case}
        if deployed:
            params["artifact"] = self.artifact_id
        return params

    def perform(self, request: Request, connection: Connection) -> Record:
        started = time.perf_counter()
        try:
            record = getattr(self, f"_{request.kind}")(request, connection)
        except Exception as exc:  # noqa: BLE001 — counted, not raised
            record = Record(request.kind,
                            problem=f"{type(exc).__name__}: {exc}")
        record.latency_s = time.perf_counter() - started
        return record

    def _evaluate(self, request: Request, connection: Connection) -> Record:
        job, polls = connection.job("evaluate",
                                    self.evaluate_params(request.key))
        record = Record("evaluate", evaluations=1, job=job, polls=polls)
        if job["state"] != "done":
            record.problem = f"evaluate ended {job['state']}: {job['error']}"
        elif canonical(job["result"]) != self.references[request.key]:
            record.problem = (f"hot key {self.inputs.hot_keys[request.key]} "
                              "reply differs from repro simulate --json")
        return record

    def _batch(self, request: Request, connection: Connection) -> Record:
        body = {"schema": 1, "case": self.inputs.case, "dataset": "train",
                "items": [{"index": index,
                           "tree": self.inputs.candidates[index],
                           "benchmark": program}
                          for index, program in request.items]}
        replies = connection.batch(body)
        record = Record("batch", evaluations=len(replies))
        by_index = {reply.get("index"): reply for reply in replies}
        for index, program in request.items:
            reply = by_index.get(index)
            if reply is None or not reply.get("ok"):
                record.problem = f"batch item {index} failed: {reply}"
                continue
            with self._lock:
                self._batch_items += 1
                sampled = self._batch_items % SAMPLE_EVERY == 0
            if sampled:
                record.sample.append({
                    "tree": self.inputs.candidates[index],
                    "benchmark": program, "value": reply["value"]})
        return record

    def _compile(self, request: Request, connection: Connection) -> Record:
        source = self.sources[request.program]
        job, polls = connection.job("compile", {
            "source": source["source"], "inputs": source["inputs"],
            "run": True, "name": request.program})
        record = Record("compile", evaluations=1, job=job, polls=polls)
        if job["state"] != "done":
            record.problem = f"compile ended {job['state']}: {job['error']}"
            return record
        simulation = job["result"]["simulation"]
        if (simulation["outputs"] != source["outputs"]
                or simulation["return_value"] != source["return_value"]):
            record.problem = (f"compile of {request.program} outputs differ "
                              "from the reference interpreter")
        return record


def run_round(requests: list[Request], load: Load,
              connections: list[Connection]) -> list[Record]:
    """Send one block over the connections; both join before return."""
    pending = iter(requests)
    lock = threading.Lock()
    records: list[Record] = []

    def drain(connection: Connection) -> None:
        while True:
            with lock:
                request = next(pending, None)
            if request is None:
                return
            record = load.perform(request, connection)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=drain, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


class Daemon:
    """``repro serve`` as a child process, stopped on exit."""

    def __init__(self, work: Path, trace_out: Path | None) -> None:
        argv = ["serve", "--port", "0", "--workers", str(CONNECTIONS),
                "--artifact-store", "store"]
        self._stderr = work / "daemon.stderr"
        self.proc = start(program_command(argv, trace_out), work,
                          self._stderr)
        self.url = None

    def await_ready(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "serving on http://" not in line:
            raise BenchError(f"daemon did not announce itself: {line!r} "
                             f"{self._stderr.read_text()[-2000:]}")
        self.url = line.split("serving on ")[1].split()[0]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("daemon has no VmHWM")

    def stop(self) -> int:
        """SIGTERM (the daemon drains), wait; SIGKILL if it will not."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(60.0)
            except Exception:  # noqa: BLE001 — must not leave it running
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _references(inputs: Inputs, artifact_id: str,
                work: Path) -> tuple[dict, dict, float, float]:
    """From outside the daemon, two at a time: ``repro simulate --json``
    for every hot key, the compile sources with their interpreter
    outputs, and the first deployed hot key once more under cProfile.
    Returns (reference per hot key, sources, that call count in
    thousands, traced / untraced wall of that key)."""
    profiled_key = 1
    profile_path = work / "reference_profile.json"

    def simulate(key: int, trace_out: Path | None = None):
        program, deployed = inputs.hot_keys[key]
        argv = ["simulate", program, "--case", inputs.case, "--json"]
        if deployed:
            argv += ["--artifact", artifact_id, "--artifact-store", "store"]
        label = f"ref{key}" + ("-traced" if trace_out else "")
        return run_program(argv, work, trace_out=trace_out, label=label)

    def compile_sources():
        return run_child([sys.executable, str(BENCH / "serve_check.py"),
                          "sources", *inputs.compile_programs], work,
                         "sources")

    with ThreadPoolExecutor(max_workers=2) as pool:
        sources_job = pool.submit(compile_sources)
        traced_job = pool.submit(simulate, profiled_key, profile_path)
        jobs = [pool.submit(simulate, key)
                for key in range(len(inputs.hot_keys))]
        done = [job.result() for job in (sources_job, traced_job, *jobs)]
    for child in done:
        if child.returncode != 0:
            raise BenchError(f"taking references failed: "
                             f"{child.stderr_tail()}")
    sources_done, traced, *simulated = done
    references = {key: canonical(child.json())
                  for key, child in enumerate(simulated)}
    kcalls = ledger.load(profile_path)["total_calls"] / 1000
    overhead = traced.wall_s / simulated[profiled_key].wall_s
    return references, sources_done.json(), kcalls, overhead


def _verify_sample(inputs: Inputs, rounds: list, work: Path,
                   outcome: Outcome) -> int:
    """Score the sampled batch items again, outside the daemon."""
    sample = [item for round_ in rounds for record in round_.records
              for item in record.sample]
    sample_path = work / "sample.json"
    sample_path.write_text(json.dumps({"case": inputs.case, "items": sample}))
    verified = run_child([sys.executable, str(BENCH / "serve_check.py"),
                          "verify", str(sample_path)], work, "verify")
    for message in child_problems(verified):
        outcome.problem(f"batch sample: {message}")
    return len(sample)


@dataclass
class Round:
    """One block of the schedule and the slices around it."""

    wall_s: float
    before: float
    after: float
    records: list

    def adjust(self, seconds: float) -> float:
        return Clock.adjust(seconds, self.before, self.after)


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    sys.path.insert(0, str(SRC))  # for repro.serve.client only
    outcome = Outcome()
    clock = Clock()
    inputs = Inputs.load()
    setup: list[Round] = []

    def step(before: float, started: float) -> float:
        """Close one timed set-up step with a slice; returns the slice."""
        wall = time.perf_counter() - started
        after = clock.slice()
        setup.append(Round(wall, before, after, []))
        return after

    # -- set-up: publish, references (untimed), boot, prime -------------
    before, started = clock.slice(), time.perf_counter()
    publish = run_program(
        [*op_argv(CAMPAIGNS["regalloc-spec"], "publish/run", "publish/cache"),
         "--publish", "store"], work, label="publish")
    step(before, started)
    if publish.returncode != 0:
        raise BenchError(f"publishing campaign failed: "
                         f"{publish.stderr_tail()}")
    published = publish.json()
    references, sources, reference_kcalls, trace_overhead = _references(
        inputs, published["artifact_id"], work)
    load = Load(inputs, published["artifact_id"], references, sources)

    profile_path = work / "daemon_profile.json" if trace else None
    before, started = clock.slice(), time.perf_counter()
    daemon = Daemon(work, profile_path)
    connections: list[Connection] = []
    rounds: list[Round] = []
    try:
        daemon.await_ready()
        connections = [Connection(daemon.url) for _ in range(CONNECTIONS)]
        connections[0].client.health()
        before, started = step(before, started), time.perf_counter()
        primed = [load.perform(Request("evaluate", key=key), connections[0])
                  for key in range(len(inputs.hot_keys))]
        before = step(before, started)
        for record in primed:
            if record.problem:
                raise BenchError(f"priming failed: {record.problem}")

        # -- the window: block, slice, block, slice, ... ----------------
        window_started = time.perf_counter()
        while time.perf_counter() - window_started < seconds:
            started = time.perf_counter()
            records = run_round(plan_block(seed, len(rounds), inputs), load,
                                connections)
            wall = time.perf_counter() - started
            after = clock.slice()
            rounds.append(Round(wall, before, after, records))
            before = after
        window_s = time.perf_counter() - window_started
        rss_mb = daemon.peak_rss_mb()
    finally:
        for connection in connections:
            connection.close()
        status = daemon.stop()
    if status != 0:
        outcome.problem(f"daemon exited {status} after its drain")
    checked = _verify_sample(inputs, rounds, work, outcome)

    # -- metrics ---------------------------------------------------------
    raw, adjusted, by_kind, jobs = [], [], {}, []
    evaluations = 0
    for round_ in rounds:
        for record in round_.records:
            outcome.attempted += 1
            if record.problem:
                outcome.failed += 1
                outcome.problem(record.problem)
                continue
            evaluations += record.evaluations
            raw.append(record.latency_s)
            adjusted.append(round_.adjust(record.latency_s))
            by_kind.setdefault(record.kind, []).append(adjusted[-1])
            if record.job is not None:
                jobs.append(record)
    if not adjusted:
        raise BenchError("no request of the window succeeded: "
                         + "; ".join(outcome.problems[:3]))
    outcome.end_to_end = {
        "setup_s": sum(s.adjust(s.wall_s) for s in setup),
        "op_ms": median(adjusted) * 1000,
        "op_p90_ms": percentile(adjusted, 0.90) * 1000,
        "evals_per_s": evaluations / sum(r.adjust(r.wall_s) for r in rounds),
        "peak_rss_mb": rss_mb,
        "op_kcalls": reference_kcalls,
        "champion_speedup": champion_speedup(published),
    }
    slowdown = median(clock.slices) / REF_SLICE_S
    outcome.detail = {
        "requests": len(adjusted),
        "rounds": len(rounds),
        "window_s": window_s,
        "batch_items_checked": checked,
        "raw_setup_s": sum(s.wall_s for s in setup),
        "raw_op_ms": median(raw) * 1000,
        "raw_op_p90_ms": percentile(raw, 0.90) * 1000,
        "raw_evals_per_s": evaluations / sum(r.wall_s for r in rounds),
        "op_p95_ms": percentile(adjusted, 0.95) * 1000,
        "op_p99_ms": percentile(adjusted, 0.99) * 1000,
        "slowdown": slowdown,
        "artifact": published["artifact_id"][:12],
    }
    if trace:
        books = ledger.load(profile_path)
        outcome.per_layer = ledger.metrics(
            books, per=len(adjusted) + len(primed))

        def job_ms(first: str, last: str) -> float:
            return 1000 * median(r.job[last] - r.job[first] for r in jobs)

        outcome.per_layer.update({
            "S.queue_wait_ms_p50": job_ms("created_at", "started_at"),
            "S.exec_ms_p50": job_ms("started_at", "finished_at"),
            "S.http_overhead_ms_p50": 1000 * median(
                r.latency_s - (r.job["finished_at"] - r.job["created_at"])
                for r in jobs),
            "S.evaluate_ms_p50": median(by_kind["evaluate"]) * 1000,
            "S.batch_ms_p50": median(by_kind["batch"]) * 1000,
            "S.compile_ms_p50": median(by_kind["compile"]) * 1000,
            "S.shed_429": float(sum(c.shed + c.client.retry_count
                                    for c in connections)),
            "S.polls_per_job": sum(r.polls for r in jobs) / len(jobs),
            "H.slowdown": slowdown,
            "H.ledger_coverage": books["coverage"],
            "H.trace_overhead": trace_overhead,
            "H.ops": float(len(adjusted)),
        })
    return outcome
