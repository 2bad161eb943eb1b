"""Compilation forking: hook-point pipeline snapshots, suffix replay.

Mosaner et al.'s "compilation forking" observation (PAPERS.md) applied
to the Meta Optimization eval path: for a given case study every
backend stage *upstream of the hook under study* is identical across
the whole GP population, so the post-prefix compiler state is frozen
once per benchmark and every candidate restored from it, replaying only
the suffix.

A :class:`PipelineSnapshot` holds master copies of the working module
and the partial :class:`~repro.passes.pipeline.BackendReport` after
:func:`~repro.passes.pipeline.run_prefix`; every restore is a
``module.clone()`` of the master, bit-identical downstream to the full
path (docs/FORKING.md has the audit, and the traffic numbers that
decided what this layer keeps).

A ``regalloc`` snapshot forks past the allocator's analysis too: it
carries one :class:`~repro.passes.regalloc.AllocationSeed` per
function of the master module (live ranges, interference, loop depths,
has-call flags — round one of Chow–Hennessy, which no spill priority
changes), so each candidate runs only priority evaluation, colouring,
any spill rounds and the rewrite.  A clone keeps the seed valid: it
has the master's labels, block order and ``VReg`` objects, and only
instruction uids, which the seed does not hold, change.

Who holds the snapshots is the caller's business: the evaluation
harness keeps one per benchmark beside its prepared programs, because
the options of its case differ between candidates in the hook alone
(``tests/metaopt/test_case_table.py`` pins that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.ir.function import Module
from repro.passes.pipeline import (
    BackendReport,
    CompilerOptions,
    PreparedProgram,
    run_prefix,
)
from repro.passes.regalloc import AllocationSeed, allocation_seed


@dataclass
class PipelineSnapshot:
    """Deep-frozen post-prefix compiler state.

    ``module``/``report`` are the master copies and are never handed
    out directly; :meth:`restore` always returns fresh, independently
    mutable state for one suffix replay.  ``allocation_seeds`` (function
    name -> seed; only at ``regalloc``) is shared by every replay and
    only read."""

    stage: str
    module: Module
    report: BackendReport
    allocation_seeds: dict[str, AllocationSeed] = field(default_factory=dict)

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


def build_snapshot(prepared: PreparedProgram, options: CompilerOptions,
                   stage: str) -> PipelineSnapshot:
    """Run the prefix for ``stage`` and freeze the result, with the
    allocator's round-one analysis when ``stage`` is ``regalloc``."""
    with obs.span("pipeline:snapshot_build", stage=stage):
        module, report = run_prefix(prepared, options, stage)
        seeds = {}
        if stage == "regalloc":
            seeds = {name: allocation_seed(function)
                     for name, function in module.functions.items()}
    obs.inc("pipeline.snapshot.builds")
    return PipelineSnapshot(stage=stage, module=module, report=report,
                            allocation_seeds=seeds)
