"""The three campaign workloads: an op is one whole CLI invocation.

A run is: set-up, then a window of rounds (slice, op, slice, op, ...),
then one more op under cProfile (the call-count ledger) while a checker
process re-scores the champion.  Every op of a run has the same argv, so
the ops are samples of one quantity and their results must be equal.

The GP seed is pinned per workload, not taken from ``--seed``: the
exact metrics (``op_kcalls``, ``champion_speedup``) are compared across
runs that are given different seeds, and one GP seed to the next moves
them by tens of percent (bench/NOISE.md).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import ledger
from driver import (BENCH, REF_SLICE_S, BenchError, Clock, Completed,
                    Outcome, child_problems, digest, finish, fresh,
                    run_child, run_program, start)
from stats import median, percentile


@dataclass(frozen=True)
class Campaign:
    name: str
    #: the op, minus ``--run-dir``/``--fitness-cache``/``--json``
    argv: tuple
    #: ops re-run against the cache the set-up campaign filled
    warm: bool = False


CAMPAIGNS = {
    campaign.name: campaign for campaign in (
        Campaign("regalloc-spec",
                 ("evolve", "regalloc", "unepic",
                  "--pop", "24", "--gens", "6", "--seed", "3")),
        Campaign("hyperblock-dss",
                 ("generalize", "hyperblock", "--train",
                  "codrle4,decodrle4,huff_dec,huff_enc,124.m88ksim",
                  "--pop", "8", "--gens", "4", "--seed", "6")),
        Campaign("warm-rerun",
                 ("evolve", "regalloc", "huff_dec",
                  "--pop", "32", "--gens", "12", "--seed", "3"),
                 warm=True),
    )
}

#: Import-floor samples in the cold workloads' set-up.
_IMPORT_SAMPLES = 11

#: The daemon-side metrics of serve-mixed; a campaign reports them as 0.
SERVE_METRICS = (
    "S.queue_wait_ms_p50", "S.exec_ms_p50", "S.http_overhead_ms_p50",
    "S.evaluate_ms_p50", "S.batch_ms_p50", "S.compile_ms_p50",
    "S.shed_429", "S.polls_per_job")


def op_argv(campaign: Campaign, run_dir: str, cache_dir: str) -> list[str]:
    return [*campaign.argv, "--run-dir", run_dir,
            "--fitness-cache", cache_dir, "--json"]


def result_digest(payload: dict) -> str:
    """Identity of a campaign's outcome: champion, history, evaluation
    count, scores.  ``config`` names directories, so it is left out."""
    return digest({key: value for key, value in payload.items()
                   if key not in ("config", "artifact_id")})


def champion_speedup(payload: dict) -> float:
    if payload["mode"] == "specialize":
        return payload["train_speedup"]
    return payload["average_train_speedup"]


def generation_counters(run_dir: Path) -> list[dict]:
    counters = []
    with open(run_dir / "events.jsonl") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("event") == "generation":
                counters.append(event["counters"])
    return counters


def _failed(outcome: Outcome, what: str, done: Completed) -> None:
    outcome.failed += 1
    outcome.problem(f"{what} exited {done.returncode}: "
                    f"{done.stderr_tail()}")


def _import_floor(clock: Clock, work: Path) -> dict:
    """Set-up of the cold workloads: what every op pays before it does
    anything, ``import repro.cli``, median of several.  One pair of
    slices brackets them all: an import is shorter than a slice."""
    raw = []
    before = clock.slice()
    for _ in range(_IMPORT_SAMPLES):
        done = run_child([sys.executable, "-c", "import repro.cli"], work,
                         "import")
        if done.returncode != 0:
            raise BenchError(f"import repro.cli failed: "
                             f"{done.stderr_tail()}")
        raw.append(done.wall_s)
    after = clock.slice()
    return {"raw": median(raw),
            "adjusted": Clock.adjust(median(raw), before, after)}


def _populate(campaign: Campaign, clock: Clock,
              work: Path) -> tuple[dict, str]:
    """Set-up of the warm workload: the cold campaign that fills the
    cache.  Returns its timings and its result digest."""
    before = clock.slice()
    done = run_program(op_argv(campaign, "cold", "cache"), work, label="cold")
    after = clock.slice()
    if done.returncode != 0:
        raise BenchError(f"populating campaign failed: "
                         f"{done.stderr_tail()}")
    return ({"raw": done.wall_s,
             "adjusted": Clock.adjust(done.wall_s, before, after)},
            result_digest(done.json()))


@dataclass
class Window:
    """The timed ops of a run, with the slices around each."""

    ops: list
    brackets: list
    payload: dict
    digest: str
    seconds: float

    def raw(self) -> list[float]:
        return [done.wall_s for done in self.ops]

    def adjusted(self) -> list[float]:
        return [Clock.adjust(done.wall_s, *pair)
                for done, pair in zip(self.ops, self.brackets)]


def _window(campaign: Campaign, argv: list[str], seconds: float,
            expected: str | None, clock: Clock, work: Path,
            outcome: Outcome) -> Window:
    """slice, op, slice, op, ... slice, for ``seconds``; every op checked
    against the others (and, warm, against the populating campaign)."""
    ops, brackets, payload = [], [], None
    started = time.perf_counter()
    before = clock.slice()
    while time.perf_counter() - started < seconds:
        fresh(work / "op")
        done = run_program(argv, work)
        after = clock.slice()
        outcome.attempted += 1
        if done.returncode != 0:
            _failed(outcome, "op", done)
        else:
            ops.append(done)
            brackets.append((before, after))
            payload = done.json()
            seen = result_digest(payload)
            if expected is None:
                expected = seen
            elif seen != expected:
                outcome.failed += 1
                outcome.problem(
                    f"op {outcome.attempted} result digest {seen[:12]} "
                    f"differs from {expected[:12]}")
            if campaign.warm:
                busy = [c for c in generation_counters(work / "op/run")
                        if c["sims"] or c["compiles"]]
                if busy:
                    outcome.failed += 1
                    outcome.problem(
                        f"warm op {outcome.attempted} simulated or "
                        f"compiled: {busy[0]}")
        before = after
    if not ops:
        raise BenchError("no op of the window succeeded: "
                         + "; ".join(outcome.problems))
    return Window(ops, brackets, payload, expected,
                  time.perf_counter() - started)


def _profiled_op(argv: list[str], window: Window, work: Path,
                 outcome: Outcome) -> tuple[dict | None, float]:
    """After the window, untimed, side by side on the box's two
    processors: one more op under cProfile, and the champion check.
    Returns the ledger (None if the op failed) and the op's wall time."""
    result_copy = work / "champion.json"
    result_copy.write_text(json.dumps(window.payload))
    check_started = time.perf_counter()
    checker = start([sys.executable, str(BENCH / "champion_check.py"),
                     str(result_copy)], work, work / "check.stderr")
    try:
        fresh(work / "op")
        profile_path = work / "profile.json"
        traced = run_program(argv, work, trace_out=profile_path,
                             label="traced")
    finally:
        checked = finish(checker, check_started, work / "check.stderr")
    for message in child_problems(checked):
        outcome.problem(f"champion check: {message}")
    outcome.attempted += 1
    if traced.returncode != 0:
        _failed(outcome, "profiled op", traced)
        return None, traced.wall_s
    if result_digest(traced.json()) != window.digest:
        outcome.failed += 1
        outcome.problem("profiled op result digest differs")
    return ledger.load(profile_path), traced.wall_s


def run(campaign: Campaign, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    clock = Clock()
    # a cold op starts from nothing (work/op is wiped before each); a
    # warm one finds the cache the populating campaign filled
    argv = op_argv(campaign, "op/run",
                   "cache" if campaign.warm else "op/cache")
    if campaign.warm:
        setup, expected = _populate(campaign, clock, work)
    else:
        setup, expected = _import_floor(clock, work), None
    window = _window(campaign, argv, seconds, expected, clock, work, outcome)
    books, traced_s = _profiled_op(argv, window, work, outcome)

    raw, adjusted = window.raw(), window.adjusted()
    evaluations = window.payload["evaluations"]
    outcome.end_to_end = {
        "setup_s": setup["adjusted"],
        "op_ms": median(adjusted) * 1000,
        "op_p90_ms": percentile(adjusted, 0.90) * 1000,
        "evals_per_s": evaluations / median(adjusted),
        "peak_rss_mb": max(done.rss_kb for done in window.ops) / 1024,
        "champion_speedup": champion_speedup(window.payload),
    }
    slowdown = median(clock.slices) / REF_SLICE_S
    outcome.detail = {
        "ops": len(window.ops),
        "window_s": window.seconds,
        "evaluations": evaluations,
        "raw_setup_s": setup["raw"],
        "raw_op_ms": median(raw) * 1000,
        "raw_op_p90_ms": percentile(raw, 0.90) * 1000,
        "raw_evals_per_s": evaluations / median(raw),
        "slowdown": slowdown,
        "result_digest": window.digest,
    }
    if books is not None:
        outcome.end_to_end["op_kcalls"] = books["total_calls"] / 1000
        outcome.per_layer = ledger.metrics(books)
        outcome.per_layer.update(dict.fromkeys(SERVE_METRICS, 0.0))
        outcome.per_layer.update({
            "H.slowdown": slowdown,
            "H.ledger_coverage": books["coverage"],
            "H.trace_overhead": traced_s / median(raw),
            "H.ops": float(len(window.ops)),
        })
        if campaign.warm:
            for name in ("Simulator.run", "compile_backend"):
                if books["boundaries"][name][0]:
                    outcome.problem(f"warm op called {name}")
    return outcome
