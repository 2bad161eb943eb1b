"""Compilation forking: hook-point pipeline snapshots, suffix replay.

Mosaner et al.'s "compilation forking" observation (PAPERS.md) applied
to the Meta Optimization eval path: for a given case study every
backend stage *upstream of the hook under study* is identical across
the whole GP population, so the post-prefix compiler state can be
frozen once per (benchmark, hook stage, options fingerprint) and every
candidate restored from it, replaying only the suffix.

A :class:`PipelineSnapshot` holds master copies of the working module
and the partial :class:`~repro.passes.pipeline.BackendReport` after
:func:`~repro.passes.pipeline.run_prefix`; every restore is a
``module.clone()`` of the master, bit-identical downstream to the full
path (docs/FORKING.md has the audit, and the traffic numbers that
decided what this layer keeps).

:class:`SnapshotCache` is the in-memory LRU in front of the builds.
Cache keying is strict: the options fingerprint covers the machine,
every structural pipeline flag, and the priorities of every stage
strictly before the hook — the hook's own priority and anything
downstream is deliberately excluded so the whole population shares one
snapshot.  A hook whose stage runs first has no prefix to share, and
the cache answers ``None``: the caller takes the plain backend path.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.ir.function import Module
from repro.passes.pipeline import (
    BACKEND_STAGES,
    STAGE_BY_HOOK,
    BackendReport,
    CompilerOptions,
    PreparedProgram,
    run_prefix,
)


def _priority_fingerprint(value) -> tuple:
    """Identity of one priority hook for cache keying."""
    if value is None:
        return ("none",)
    tree = getattr(value, "tree", None)
    structural = getattr(tree if tree is not None else value,
                         "structural_key", None)
    if callable(structural):
        return ("tree",) + tuple(structural())
    # Any other callable is keyed by the object itself, never by its
    # ``id()``: the LRU key then holds a reference, so the address
    # cannot be recycled by a different function while the snapshot
    # built under this one is resident.
    return ("native", value)


def options_fingerprint(options: CompilerOptions, stage: str) -> tuple:
    """Identity of everything that can influence the prefix for
    ``stage``: the machine, structural pipeline flags, the verifier
    setting, and the priorities of every stage strictly before the
    hook.  Suffix priorities are excluded by design — they only affect
    the replay, which re-runs per candidate anyway."""
    if stage not in BACKEND_STAGES:
        raise ValueError(f"unknown backend stage {stage!r}")
    parts: list[tuple] = [
        ("machine",
         hashlib.sha256(repr(options.machine).encode()).hexdigest()[:16]),
        ("inline", options.inline),
        ("unroll", options.unroll_factor),
        ("hyperblock", options.hyperblock),
        ("prefetch", options.prefetch),
        ("threshold", options.hyperblock_threshold),
        ("verify_ir", options.verify_ir),
        ("backend_order", tuple(options.backend_order)),
        ("inline_priority",
         _priority_fingerprint(options.inline_priority)),
        ("unroll_priority",
         _priority_fingerprint(options.unroll_priority)),
    ]
    order = tuple(options.backend_order)
    prefix = order[:order.index(stage)]
    for field, steered in STAGE_BY_HOOK.items():
        if steered in prefix:
            parts.append(
                (field, _priority_fingerprint(getattr(options, field))))
    return tuple(parts)


@dataclass
class PipelineSnapshot:
    """Deep-frozen post-prefix compiler state.

    ``module``/``report`` are the master copies and are never handed
    out directly; :meth:`restore` always returns fresh, independently
    mutable state for one suffix replay."""

    stage: str
    module: Module
    report: BackendReport

    def restore(self) -> tuple[Module, BackendReport]:
        started = time.perf_counter()
        module = self.module.clone()
        report = BackendReport(
            hyperblock=dict(self.report.hyperblock),
            prefetch=dict(self.report.prefetch),
            regalloc=dict(self.report.regalloc),
        )
        obs.inc("pipeline.snapshot.restores")
        obs.observe("pipeline.snapshot.restore_seconds",
                    time.perf_counter() - started)
        return module, report


def build_snapshot(
    prepared: PreparedProgram,
    options: CompilerOptions | None = None,
    stage: str = "schedule",
) -> PipelineSnapshot:
    """Run the prefix for ``stage`` and freeze the result."""
    with obs.span("pipeline:snapshot_build", stage=stage):
        module, report = run_prefix(prepared, options, stage)
    obs.inc("pipeline.snapshot.builds")
    return PipelineSnapshot(stage=stage, module=module, report=report)


class SnapshotCache:
    """Thread-safe in-memory LRU of :class:`PipelineSnapshot`, keyed by
    (benchmark, stage, options fingerprint)."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("snapshot cache capacity must be >= 1")
        self.capacity = capacity
        self._lru: OrderedDict[tuple, PipelineSnapshot] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    def get_or_build(self, benchmark: str, prepared: PreparedProgram,
                     options: CompilerOptions | None,
                     stage: str) -> PipelineSnapshot | None:
        """The snapshot to replay ``stage`` from, or ``None`` when
        ``stage`` runs first: its "prefix" is the prepared module, and
        ``compile_backend`` without a snapshot already clones that."""
        options = options or prepared.options
        if options.heuristic_artifact is not None:
            options = options.heuristic_artifact.install(options)
        if stage == options.backend_order[0]:
            return None
        key = (benchmark, stage, options_fingerprint(options, stage))
        with self._lock:
            snapshot = self._lru.get(key)
            if snapshot is not None:
                self._lru.move_to_end(key)
                self.hits += 1
                obs.inc("pipeline.snapshot.hits")
                return snapshot
            self.misses += 1
        obs.inc("pipeline.snapshot.misses")
        snapshot = build_snapshot(prepared, options, stage)
        with self._lock:
            self.builds += 1
            self._lru[key] = snapshot
            self._lru.move_to_end(key)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
                self.evictions += 1
        return snapshot

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "evictions": self.evictions,
                "entries": len(self._lru),
            }
