"""Bounded job queue + warm worker pool for the serving daemon.

Design goals, in order:

* **Explicit backpressure.**  The queue is bounded; :meth:`JobQueue.
  submit` raises :class:`QueueFull` (with a suggested retry delay)
  instead of blocking or growing without bound, and the HTTP layer
  turns that into ``429 Retry-After``.  A saturated server sheds load,
  it never deadlocks or OOMs.
* **Warm process.**  :class:`HarnessPool` keeps one
  :class:`~repro.metaopt.harness.EvaluationHarness` per case and
  settings (prepared programs, baseline cycles, candidate memo) alive
  across requests for every thread of the process — the Compilation-
  Forking insight that a long-lived compiler service amortizes warm
  state over many requests.
* **Bounded job lifecycle.**  Queued jobs can be cancelled; every job
  carries a deadline.  A job still queued at its deadline is marked
  ``timeout`` without running; a job whose handler outlives the
  deadline has its result discarded and is marked ``timeout`` (the
  simulator's own cycle budget bounds actual handler runtime).
  Running jobs accept a *cooperative* cancel: :meth:`JobQueue.cancel`
  sets :attr:`Job.cancel_requested`, which long-running handlers (the
  autopilot's campaign steps) poll via :meth:`JobQueue.current_job`
  and honor at their next safe point.
* **Two priorities.**  ``interactive`` (the default) always runs
  before ``background``; the autopilot's evolution campaign steps ride
  the ``background`` class, so live traffic preempts self-improvement
  work at generation granularity.
* **Graceful drain.**  :meth:`JobQueue.drain` stops intake, cancels
  *queued* background jobs (they are resumable checkpointed steps),
  finishes every in-flight and queued interactive job, and joins the
  workers — the SIGTERM path of :mod:`repro.serve.server`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro import obs

#: Job states; ``queued`` and ``running`` are live, the rest terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "timeout")

#: Finished jobs retained for ``GET /v1/jobs/<id>`` before eviction.
FINISHED_JOBS_RETAINED = 1024

#: Job priority classes, in scheduling order.
JOB_PRIORITIES = ("interactive", "background")


class QueueFull(RuntimeError):
    """The bounded queue rejected a submission (shed, don't block)."""

    def __init__(self, capacity: int, retry_after: float) -> None:
        super().__init__(
            f"job queue at capacity ({capacity}); retry in "
            f"{retry_after:.1f}s")
        self.capacity = capacity
        self.retry_after = retry_after


@dataclass
class Job:
    """One unit of server work and its full lifecycle record."""

    id: str
    kind: str
    params: dict
    deadline: float | None
    priority: str = "interactive"
    state: str = "queued"
    result: dict | None = None
    error: str | None = None
    cancel_requested: bool = False
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "priority": self.priority,
            "state": self.state,
            "result": self.result,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled", "timeout")


class JobQueue:
    """Fixed worker pool draining a bounded FIFO of :class:`Job`.

    ``handler(kind, params)`` runs on a worker thread and returns the
    job's JSON result dict (or raises; the exception text becomes the
    job's ``error``).
    """

    def __init__(
        self,
        handler,
        workers: int = 2,
        capacity: int = 16,
        job_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.handler = handler
        self.capacity = capacity
        self.job_timeout = job_timeout
        self._pending: deque[Job] = deque()
        self._background: deque[Job] = deque()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._current = threading.local()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._running = 0
        self._accepting = True
        self._stopped = False
        self._ids = itertools.count(1)
        self.counters = {
            "submitted": 0, "rejected": 0, "done": 0, "failed": 0,
            "cancelled": 0, "timeout": 0,
        }
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- intake ----------------------------------------------------------
    def submit(self, kind: str, params: dict,
               priority: str = "interactive") -> Job:
        """Enqueue a job or raise :class:`QueueFull`/:class:`
        RuntimeError` (draining).  Capacity is accounted per priority
        class, so a deep background backlog can never shed interactive
        traffic (or vice versa)."""
        if priority not in JOB_PRIORITIES:
            raise ValueError(f"unknown job priority {priority!r}")
        with self._lock:
            if not self._accepting:
                raise RuntimeError("queue is draining; not accepting jobs")
            pending = (self._pending if priority == "interactive"
                       else self._background)
            if len(pending) >= self.capacity:
                self.counters["rejected"] += 1
                obs.inc("serve.jobs_rejected")
                # Suggest waiting roughly one queue-drain interval:
                # scale with backlog so clients back off harder when
                # the queue is deeper.
                retry = max(0.1, 0.05 * len(pending))
                raise QueueFull(self.capacity, retry)
            deadline = (time.monotonic() + self.job_timeout
                        if self.job_timeout is not None
                        and priority == "interactive" else None)
            job = Job(id=f"job-{next(self._ids):06d}", kind=kind,
                      params=params, deadline=deadline, priority=priority)
            self._jobs[job.id] = job
            self._evict_finished_locked()
            pending.append(job)
            self.counters["submitted"] += 1
            obs.inc("serve.jobs_submitted")
            self._work_ready.notify()
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job immediately; flag a *running* job for
        cooperative cancellation (long-running handlers poll
        :meth:`current_job` and stop at their next safe point — for a
        campaign step, between engine generations).  Returns True when
        the job transitioned to ``cancelled`` right now."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            if job.state == "running":
                job.cancel_requested = True
                obs.inc("serve.jobs_cancel_requested")
                return False
            if job.state != "queued":
                return False
            job.state = "cancelled"
            job.cancel_requested = True
            job.finished_at = time.time()
            self.counters["cancelled"] += 1
            obs.inc("serve.jobs_cancelled")
            return True

    def _cancel_background_locked(self) -> int:
        cancelled = 0
        for job in self._background:
            if job.state != "queued":
                continue
            job.state = "cancelled"
            job.cancel_requested = True
            job.error = "cancelled by drain"
            job.finished_at = time.time()
            self.counters["cancelled"] += 1
            obs.inc("serve.jobs_cancelled")
            cancelled += 1
        return cancelled

    def current_job(self) -> Job | None:
        """The job the *calling worker thread* is executing, if any.
        Handlers use this to poll ``cancel_requested`` mid-run without
        the ``handler(kind, params)`` signature growing a job handle."""
        return getattr(self._current, "job", None)

    # -- worker side -----------------------------------------------------
    def _next_job_locked(self) -> Job | None:
        # Interactive traffic strictly preempts background work: a
        # background job is only picked when no interactive job waits.
        for pending in (self._pending, self._background):
            while pending:
                job = pending.popleft()
                if job.state != "queued":
                    continue  # cancelled while waiting
                if (job.deadline is not None
                        and time.monotonic() > job.deadline):
                    job.state = "timeout"
                    job.error = "timed out waiting in queue"
                    job.finished_at = time.time()
                    self.counters["timeout"] += 1
                    obs.inc("serve.jobs_timeout")
                    continue
                return job
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                job = self._next_job_locked()
                while job is None and not self._stopped:
                    self._idle.notify_all()
                    self._work_ready.wait()
                    job = self._next_job_locked()
                if job is None:
                    self._idle.notify_all()
                    return
                job.state = "running"
                job.started_at = time.time()
                self._running += 1
            obs.observe(f"serve.wait_seconds.{job.priority}",
                        job.started_at - job.created_at)
            started = time.monotonic()
            self._current.job = job
            try:
                result = self.handler(job.kind, job.params)
                error = None
            except Exception as exc:  # noqa: BLE001 — job isolation
                result = None
                error = f"{type(exc).__name__}: {exc}"
            finally:
                self._current.job = None
            elapsed = time.monotonic() - started
            with self._lock:
                self._running -= 1
                if (job.deadline is not None
                        and time.monotonic() > job.deadline):
                    job.state = "timeout"
                    job.error = (f"exceeded job timeout "
                                 f"({self.job_timeout:.1f}s); result "
                                 "discarded")
                    job.result = None
                    self.counters["timeout"] += 1
                    obs.inc("serve.jobs_timeout")
                elif error is not None:
                    job.state = "failed"
                    job.error = error
                    self.counters["failed"] += 1
                    obs.inc("serve.jobs_failed")
                else:
                    job.state = "done"
                    job.result = result
                    self.counters["done"] += 1
                    obs.inc("serve.jobs_done")
                    obs.observe("serve.job_seconds", elapsed)
                job.finished_at = time.time()
                self._idle.notify_all()

    def _evict_finished_locked(self) -> None:
        finished = [job_id for job_id, job in self._jobs.items()
                    if job.finished]
        excess = len(finished) - FINISHED_JOBS_RETAINED
        for job_id in finished[:max(0, excess)]:
            del self._jobs[job_id]

    # -- lifecycle -------------------------------------------------------
    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def background_depth(self) -> int:
        with self._lock:
            return len(self._background)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop intake, cancel queued background jobs (resumable), wait
        for everything queued + running to finish, stop the workers.
        Returns True when fully drained."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._lock:
            self._accepting = False
            self._cancel_background_locked()
            while self._pending or self._background or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work_ready.notify_all()
                if not self._idle.wait(timeout=remaining):
                    return False
            self._stopped = True
            self._work_ready.notify_all()
        for worker in self._workers:
            worker.join(timeout=5.0)
        return True

    def stats(self) -> dict:
        with self._lock:
            return {
                **self.counters,
                "depth": len(self._pending),
                "background_depth": len(self._background),
                "running": self._running,
                "capacity": self.capacity,
                "workers": len(self._workers),
                "accepting": self._accepting,
            }


# ---------------------------------------------------------------------------
# Domain handlers: the work the daemon actually runs.
# ---------------------------------------------------------------------------

#: Warm harnesses one process keeps: the pool key contains the
#: requester's noise, so a client walking noise values must not grow it.
MAX_WARM_HARNESSES = 16


class HarnessPool:
    """The process's warm :class:`EvaluationHarness` instances, one per
    (case, resolved :class:`~repro.metaopt.settings.EvalSettings`),
    shared by the job workers, the ``/v1/evaluate-batch`` handler
    threads and the autopilot.  Least recently used dropped beyond
    :data:`MAX_WARM_HARNESSES`; it still serves whoever holds it.
    """

    def __init__(self, fitness_cache_dir: str | None = None) -> None:
        self.fitness_cache_dir = fitness_cache_dir
        self._lock = threading.Lock()
        #: insertion order is recency: most recently used last
        self._harnesses: dict[tuple, object] = {}

    def get_for_settings(self, case_name: str, settings):
        from repro.metaopt.harness import EvaluationHarness, case_study

        # Pin the host-local fields: the cache directory belongs to
        # *this* server's configuration, never to the requester (a
        # remote coordinator must not name local paths), and a daemon
        # always forks compiles at the hook.  Neither field affects
        # fitness values, so overriding them keeps results
        # bit-identical to the requested settings.
        settings = settings.replace(
            fitness_cache_dir=self.fitness_cache_dir,
            use_snapshots=True,
        )
        key = (case_name, settings)
        with self._lock:
            harness = self._harnesses.pop(key, None)
            if harness is None:
                harness = EvaluationHarness(case_study(case_name), settings)
            self._harnesses[key] = harness
            if len(self._harnesses) > MAX_WARM_HARNESSES:
                del self._harnesses[next(iter(self._harnesses))]
        return harness

    def get(self, case_name: str, noise_stddev: float = 0.0):
        from repro.metaopt.settings import EvalSettings

        return self.get_for_settings(
            case_name, EvalSettings(noise_stddev=noise_stddev))


def simulation_payload(case_name: str, machine_name: str, benchmark: str,
                       dataset: str, result,
                       artifact_id: str | None = None) -> dict:
    """The canonical simulation-result document.

    Single source of truth for ``repro simulate --json``, ``POST
    /v1/evaluate`` results, and ``repro submit`` — byte-identical (as
    canonical sorted-keys JSON) no matter which path produced it.
    """
    payload = {
        "schema": 1,
        "benchmark": benchmark,
        "dataset": dataset,
        "machine": machine_name,
        "case": case_name,
        "outputs": result.outputs,
        "return_value": result.return_value,
        "cycles": result.cycles,
        "dynamic_ops": result.dynamic_ops,
        "squashed_ops": result.squashed_ops,
        "memory_stall_cycles": result.memory_stall_cycles,
        "branch_stall_cycles": result.branch_stall_cycles,
        "l1_hit_rate": result.l1_hit_rate,
        "branch_accuracy": result.branch_accuracy,
        "prefetch_count": result.prefetch_count,
    }
    if artifact_id is not None:
        payload["artifact"] = artifact_id
    return payload


def resolve_channel_artifact(registry, case_name: str, machine: str,
                             channel: str, benchmark: str, dataset: str,
                             canary_router=None) -> tuple[str, bool]:
    """Resolve a channel request to a concrete artifact id.

    ``channel="canary"`` demands the canary pointer.  ``"stable"``
    resolves to the stable pointer — unless a canary is live *and* the
    ``canary_router`` (the autopilot's deterministic hash slice) claims
    this traffic key, in which case the canary rides the request.
    Returns ``(artifact_id, routed_to_canary)``.
    """
    from repro.serve.artifact import ArtifactError

    if channel not in ("stable", "canary"):
        raise ValueError(f"unknown channel {channel!r} "
                         "(expected 'stable' or 'canary')")
    if registry is None:
        raise ArtifactError("no artifact store configured")
    chosen = registry.get_channel(case_name, machine, channel)
    if channel == "stable":
        if chosen is None:
            raise ArtifactError(
                f"no stable artifact on the {case_name}/{machine} track")
        canary = registry.get_channel(case_name, machine, "canary")
        if (canary is not None and canary_router is not None
                and canary_router(case_name, machine, benchmark, dataset)):
            return canary, True
        return chosen, False
    if chosen is None:
        raise ArtifactError(
            f"no canary artifact on the {case_name}/{machine} track")
    return chosen, False


def run_evaluate(params: dict, harness_pool: HarnessPool,
                 registry=None, canary_router=None) -> dict:
    """Execute one evaluate request: simulate a suite benchmark under
    the case baseline, a deployed artifact, or a channel pointer
    (``"channel": "stable"`` rides the autopilot's canary slice when
    one is live)."""
    from repro.metaopt.harness import case_study
    from repro.serve.artifact import ArtifactError

    benchmark = params.get("benchmark")
    if not benchmark:
        raise ValueError("evaluate requires 'benchmark'")
    case_name = params.get("case", "hyperblock")
    # the daemon evaluates priority-function trees; the case says
    # whether it has them
    case = case_study(case_name).require_tree_valued()
    dataset = params.get("dataset", "train")
    if dataset not in ("train", "novel"):
        raise ValueError(f"unknown dataset {dataset!r}")
    noise = float(params.get("noise", 0.0))
    artifact_ref = params.get("artifact")
    channel = params.get("channel")
    if channel and artifact_ref:
        raise ValueError("'artifact' and 'channel' are mutually exclusive")

    routed_canary = False
    if channel:
        artifact_ref, routed_canary = resolve_channel_artifact(
            registry, case_name, case.machine.name, channel, benchmark,
            dataset, canary_router=canary_router)

    artifact = None
    if artifact_ref:
        if registry is None:
            raise ArtifactError("no artifact store configured")
        artifact = registry.load(artifact_ref)
        if artifact.case != case_name:
            if "case" in params:
                raise ArtifactError(
                    f"artifact {artifact.short_id} targets "
                    f"{artifact.case}, request says {case_name}")
            case_name = artifact.case

    harness = harness_pool.get(case_name, noise)
    if artifact is not None:
        result = harness.simulate(artifact.tree(), benchmark, dataset)
    else:
        result = harness.baseline_result(benchmark, dataset)
    payload = simulation_payload(
        case_name, harness.case.machine.name, benchmark, dataset, result,
        artifact_id=artifact.artifact_id if artifact is not None else None)
    if channel:
        payload["channel"] = channel
        payload["routed_canary"] = routed_canary
    return payload


def parse_evaluate_batch(params: dict) -> tuple:
    """Validate a ``POST /v1/evaluate-batch`` body.

    Returns ``(case_name, dataset, settings, items)`` or raises
    :class:`ValueError`.  ``items`` is the raw list of
    ``{"index", "tree", "benchmark"}`` dicts; indices must be unique
    (they key the coordinator's order-independent reduction).
    """
    from repro.metaopt.harness import case_study
    from repro.metaopt.settings import EvalSettings

    if params.get("schema") != 1:
        raise ValueError("evaluate-batch requires 'schema': 1")
    case_name = params.get("case")
    if not isinstance(case_name, str):
        raise ValueError(f"unknown case {case_name!r}")
    case_study(case_name).require_tree_valued()
    dataset = params.get("dataset", "train")
    if dataset not in ("train", "novel"):
        raise ValueError(f"unknown dataset {dataset!r}")
    try:
        settings = EvalSettings.from_json_dict(params.get("settings") or {})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad settings: {exc}")
    items = params.get("items")
    if not isinstance(items, list) or not items:
        raise ValueError("'items' must be a non-empty list")
    seen = set()
    for item in items:
        if not isinstance(item, dict):
            raise ValueError("each item must be a JSON object")
        index = item.get("index")
        if not isinstance(index, int) or index < 0:
            raise ValueError("each item needs a non-negative 'index'")
        if index in seen:
            raise ValueError(f"duplicate item index {index}")
        seen.add(index)
        if not item.get("tree") or not isinstance(item["tree"], str):
            raise ValueError("each item needs a 'tree' s-expression")
        if not item.get("benchmark"):
            raise ValueError("each item needs a 'benchmark'")
    return case_name, dataset, settings, items


def check_fingerprints(params: dict, machine) -> None:
    """Reject a batch whose coordinator compiled against different
    source or machine tables: silently mixing fingerprints would break
    the fleet's bit-identical guarantee.  Absent fields are not
    checked (same-source deployments may skip them)."""
    wanted = params.get("fingerprint") or {}
    if not isinstance(wanted, dict):
        raise ValueError("'fingerprint' must be a JSON object")
    if not wanted:
        return
    from repro.metaopt.fitness_cache import (
        machine_fingerprint,
        pipeline_fingerprint,
    )

    pipeline = wanted.get("pipeline")
    if pipeline is not None and pipeline != pipeline_fingerprint():
        raise ValueError(
            f"pipeline fingerprint mismatch: coordinator has "
            f"{pipeline}, worker has {pipeline_fingerprint()}")
    fingerprint = wanted.get("machine")
    if (fingerprint is not None
            and fingerprint != machine_fingerprint(machine)):
        raise ValueError(
            f"machine fingerprint mismatch for {machine.name!r}")


def run_evaluate_batch(params: dict, harness_pool: HarnessPool):
    """Execute one evaluate-batch request as a generator of per-item
    result dicts (streamed as NDJSON by the HTTP layer).

    Every item is evaluated independently; a candidate that fails to
    parse or evaluate yields ``{"ok": false}`` for *that index only*,
    so one bad candidate cannot poison a shard.  Values are speedups
    from ``EvaluationHarness.speedup`` — bit-identical to the serial
    path because the harness derives noise seeds from the memo key,
    not from which host or thread runs the simulation.
    """
    from repro.metaopt.priority import PriorityFunction

    case_name, dataset, settings, items = parse_evaluate_batch(params)
    harness = harness_pool.get_for_settings(case_name, settings)
    check_fingerprints(params, harness.case.machine)
    for item in items:
        index = item["index"]
        try:
            priority = PriorityFunction.from_text(item["tree"],
                                                  harness.case.pset)
            value = harness.speedup(priority.tree, item["benchmark"],
                                    dataset)
            obs.inc("serve.batch_items")
            yield {"index": index, "ok": True, "value": value}
        except Exception as exc:  # noqa: BLE001 — item isolation
            obs.inc("serve.batch_item_errors")
            yield {"index": index, "ok": False,
                   "error": f"{type(exc).__name__}: {exc}"}


def run_compile(params: dict, registry=None) -> dict:
    """Execute one compile request: MiniC source through the full
    pipeline (optionally under an artifact), returning static stats
    and, when inputs are supplied, a simulation of the binary."""
    from repro.cli import MACHINES
    from repro.compiler import compile_program
    from repro.passes.pipeline import CompilerOptions
    from repro.serve.artifact import ArtifactError

    source = params.get("source")
    if not source:
        raise ValueError("compile requires 'source' (MiniC text)")
    machine_name = params.get("machine", "epic")
    if machine_name not in MACHINES:
        raise ValueError(f"unknown machine {machine_name!r}")

    artifact = None
    if params.get("artifact"):
        if registry is None:
            raise ArtifactError("no artifact store configured")
        artifact = registry.load(params["artifact"])

    options = CompilerOptions(
        machine=MACHINES[machine_name],
        prefetch=bool(params.get("prefetch", False)),
        unroll_factor=int(params.get("unroll", 2)),
        heuristic_artifact=artifact,
    )
    inputs = params.get("inputs") or {}
    if not isinstance(inputs, dict):
        raise ValueError("'inputs' must be a JSON object of globals")
    program = compile_program(source, profile_inputs=inputs,
                              options=options,
                              name=params.get("name", "request"))
    functions = {
        name: {
            "blocks": len(func.block_order),
            "static_cycles": func.static_cycles(),
            "frame_words": func.frame_words,
        }
        for name, func in program.scheduled.functions.items()
    }
    payload = {
        "schema": 1,
        "machine": machine_name,
        "functions": functions,
        "artifact": (artifact.artifact_id
                     if artifact is not None else None),
    }
    if params.get("run", False):
        result = program.run(inputs)
        payload["simulation"] = {
            "outputs": result.outputs,
            "return_value": result.return_value,
            "cycles": result.cycles,
            "dynamic_ops": result.dynamic_ops,
        }
    return payload
