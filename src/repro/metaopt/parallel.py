"""Parallel fitness evaluation.

"GP is a distributed algorithm.  With the cost of computing power at an
all-time low, it is now economically feasible to dedicate a cluster of
machines to searching a solution space" (Section 3) — the paper ran 15
to 20 machines in parallel.  This module provides the single-machine
equivalent: a process pool forked from the campaign's one
:class:`~repro.metaopt.harness.EvaluationHarness`, whose workers
evaluate candidates shipped as s-expression text.

Usage::

    harness = EvaluationHarness(case_study("hyperblock"))
    with ParallelEvaluator(harness, processes=4) as evaluator:
        engine = GPEngine(pset, evaluator, benchmarks, params, seeds)
        result = engine.run()

The evaluator is a plain transport of
:class:`~repro.metaopt.harness.EvaluatorProtocol`: the GP engine owns
the fitness memo and hands :meth:`evaluate_batch` distinct, never-seen
``(tree, benchmark)`` pairs, which are fanned out over the pool with
``imap_unordered`` (results are reassembled by job index, so completion
order never affects fitness values).

The pool forks on the first batch, *after* the parent has run the
candidate-independent work (frontend, profiling, baseline compile +
simulate) for that batch's benchmarks on the harness — workers inherit
it copy-on-write instead of each redoing it, and the parent's harness
is already warm when the campaign's finalize step scores the champion
on it.  Workers stay warm across generations: the pool, and with it
every worker's prepared-program and cycle caches, lives until
:meth:`close`.

Candidate trees travel as s-expression text, which is cheap and
version-independent; ``parse(unparse(tree))`` is structurally exact
(including float constants), so worker-side memo keys and noise seeds
match the serial path bit-for-bit.  A ``settings.fitness_cache_dir`` on
the harness is shared by every worker; entry writes are atomic, so
concurrent workers may race benignly on the same key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.gp.nodes import Node
from repro.gp.parse import unparse
from repro.obs.metrics import diff_snapshots

if TYPE_CHECKING:
    from repro.metaopt.harness import EvaluationHarness

#: The forked copy of the parent's harness (set in workers only).
_WORKER_HARNESS = None
#: Snapshot of the worker registry at the last shipped delta; baselines
#: out both the parent state inherited via fork and earlier jobs, so
#: each job's delta carries only its own activity.
_WORKER_METRICS_MARK = None


def _worker_init(harness: "EvaluationHarness",
                 collect_metrics: bool = False) -> None:
    """Adopt the harness this worker was forked with: its prepared-
    program and baseline-cycle caches came along copy-on-write (fork
    hands ``initargs`` over by reference, nothing is pickled)."""
    global _WORKER_HARNESS, _WORKER_METRICS_MARK
    _WORKER_HARNESS = harness
    if collect_metrics:
        # Reuses a registry inherited copy-on-write (enable_metrics is
        # idempotent); the mark excludes its pre-fork contents from the
        # first delta shipped back.
        _WORKER_METRICS_MARK = obs.enable_metrics().snapshot()
    else:
        obs.disable_metrics()
        _WORKER_METRICS_MARK = None


def _worker_evaluate(
    job: tuple[int, str, str, str]
) -> tuple[int, float, dict | None]:
    """Evaluate one job; ships a metrics *delta* (everything this
    worker recorded since its last shipped job) alongside the value so
    the parent can fold per-worker activity into its own registry."""
    global _WORKER_METRICS_MARK
    index, tree_text, benchmark, dataset = job
    from repro.metaopt.priority import PriorityFunction

    priority = PriorityFunction.from_text(tree_text,
                                          _WORKER_HARNESS.case.pset)
    value = _WORKER_HARNESS.speedup(priority.tree, benchmark, dataset)
    registry = obs.metrics()
    if registry is None:
        return index, value, None
    snapshot = registry.snapshot()
    delta = diff_snapshots(_WORKER_METRICS_MARK or {}, snapshot)
    _WORKER_METRICS_MARK = snapshot
    return index, value, delta


class ParallelEvaluator:
    """Process-pool fitness evaluation on forked copies of ``harness``,
    bound to one ``dataset``."""

    def __init__(self, harness: "EvaluationHarness", processes: int = 2,
                 *, dataset: str = "train") -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.harness = harness
        self.processes = processes
        self.dataset = dataset
        self._pool = None
        self.jobs_dispatched = 0
        self.batches_dispatched = 0

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self, benchmarks: Iterable[str]):
        """The pool, forked on first use — after the parent has run
        the candidate-independent work for ``benchmarks``, so every
        worker inherits it instead of N workers paying N prepares per
        benchmark.  Benchmarks first seen after the fork (late DSS
        subset members) are prepared per worker."""
        if self._pool is None:
            for benchmark in benchmarks:
                self.harness.prepared(benchmark)
                self.harness.baseline_result(benchmark, self.dataset)
            # Imported here, not at module level: a serial campaign
            # never builds a pool and should not pay for the import.
            import multiprocessing

            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(
                self.processes,
                initializer=_worker_init,
                initargs=(self.harness, obs.metrics_enabled()),
            )
        return self._pool

    def close(self, force: bool = False) -> None:
        """Shut the pool down.

        The default path lets in-flight jobs finish (``close`` +
        ``join``); ``force=True`` is the escape hatch that terminates
        workers immediately, used when unwinding from an error.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        try:
            if force:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        except BaseException:
            pool.terminate()
            pool.join()
            raise

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(force=exc_type is not None)

    # -- evaluation --------------------------------------------------------
    def evaluate_batch(
        self, jobs: Iterable[tuple[Node, str]]) -> list[float]:
        """Evaluate distinct ``(tree, benchmark)`` pairs across the
        pool; values come back in job order."""
        indexed = [(index, unparse(tree), benchmark, self.dataset)
                   for index, (tree, benchmark) in enumerate(jobs)]
        if not indexed:
            return []
        pool = self._ensure_pool(sorted({job[2] for job in indexed}))
        chunksize = max(1, len(indexed) // (self.processes * 4))
        results: list[float | None] = [None] * len(indexed)
        registry = obs.metrics()
        try:
            for index, value, delta in pool.imap_unordered(
                _worker_evaluate, indexed, chunksize=chunksize
            ):
                results[index] = value
                if delta is not None and registry is not None:
                    registry.merge_snapshot(delta)
        except KeyboardInterrupt:
            # Ctrl-C mid-batch: the pool's workers got the signal too
            # and may be wedged in partial jobs — terminate instead of
            # draining, then let the interrupt reach the caller (the
            # experiment runner checkpoints every generation, so the
            # in-flight generation is simply re-run on resume).
            self.close(force=True)
            raise
        self.jobs_dispatched += len(indexed)
        self.batches_dispatched += 1
        obs.inc("parallel.jobs", len(indexed))
        obs.inc("parallel.batches")
        return results

    def stats(self) -> dict[str, int]:
        """Telemetry counters for event streams and progress reports."""
        return {
            "processes": self.processes,
            "jobs_dispatched": self.jobs_dispatched,
            "batches_dispatched": self.batches_dispatched,
        }
