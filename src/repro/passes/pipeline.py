"""The compilation pipeline.

Mirrors the paper's Trimaran configuration (Section 5.3): "function
inlining, loop unrolling, backedge coalescing, acyclic global
scheduling, hyperblock formation, register allocation, machine-specific
peephole optimization, and several classic optimizations" — here
realised as:

========================  =============================================
inline                    :mod:`repro.passes.inline`
classic opts + peephole   :mod:`repro.passes.cleanup`
loop unrolling            :mod:`repro.passes.unroll`
profiling                 :mod:`repro.profile.profiler`
hyperblock formation      :mod:`repro.passes.hyperblock`  (hook #1)
data prefetching          :mod:`repro.passes.prefetch`    (hook #3)
register allocation       :mod:`repro.passes.regalloc`    (hook #2)
list scheduling           :mod:`repro.passes.schedule`
========================  =============================================

The pipeline is split at the profiling point:

* :func:`prepare` runs every candidate-*independent* stage and collects
  the training-input profile — the Meta Optimization harness caches
  this per benchmark, exactly as the paper memoizes what it can because
  "fitness evaluations for our problem are costly";
* :func:`compile_backend` clones the prepared module and runs the
  candidate-*dependent* stages with the supplied priority functions.

The backend is itself forkable (docs/FORKING.md): every stage funnels
through one dispatcher, so :func:`run_prefix` can execute just the
stages strictly before a hook point and :func:`compile_backend` can
resume from a :class:`~repro.passes.snapshot.PipelineSnapshot` of that
state, replaying only the suffix per candidate.  It can also end early:
a caller's probe sees the IR right after one named stage and may stop
the compile there (the harness's content-digest memo).  The
``hyperblock`` stage is if-conversion and the module-wide cleanup after
it, so a probe on ``hyperblock`` sees the cleaned-up IR.

Each pass is imported where it runs and resolves a ``None`` hook
itself, so a caller that only builds :class:`CompilerOptions` (a
campaign the fitness cache answers) loads no pass (DESIGN.md §3b).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.machine.descr import DEFAULT_EPIC, MachineDescription

if TYPE_CHECKING:
    from repro.ir.function import Module
    from repro.machine.vliw import ScheduledModule
    from repro.passes.hyperblock import HyperblockPriority, HyperblockReport
    from repro.passes.inline import InlineReport
    from repro.passes.prefetch import PrefetchPriority, PrefetchReport
    from repro.passes.regalloc import (AllocationReport, AllocationSeed,
                                       SpillPriority)
    from repro.passes.schedule import SchedulePriority
    from repro.passes.unroll import UnrollReport
    from repro.profile.profiler import ModuleProfile

#: Candidate-dependent backend stages, in execution order.  A case
#: study's *prefix* is every stage strictly before its hook's stage;
#: the hook's stage plus everything downstream is the replayed
#: *suffix* (docs/FORKING.md).
BACKEND_STAGES: tuple[str, ...] = (
    "hyperblock", "prefetch", "regalloc", "schedule")

#: CompilerOptions hook attribute -> the backend stage it steers: the
#: one hook<->stage map.
#: The prepare-stage hook (``unroll_priority``) and the flags genome
#: have no backend stage and are deliberately absent: their candidates
#: re-run :func:`prepare`, so nothing downstream of a snapshot prefix
#: can cover them.
STAGE_BY_HOOK = {
    "hyperblock_priority": "hyperblock",
    "prefetch_priority": "prefetch",
    "spill_priority": "regalloc",
    "schedule_priority": "schedule",
}


def validate_backend_order(order: tuple[str, ...]) -> tuple[str, ...]:
    """Check a backend stage ordering: only the two region-shaping
    stages (hyperblock, prefetch) may permute — allocation needs final
    IR shape and scheduling needs allocated code, so both stay pinned
    at the end."""
    if (len(order) != len(BACKEND_STAGES)
            or set(order[:2]) != {"hyperblock", "prefetch"}
            or tuple(order[2:]) != ("regalloc", "schedule")):
        raise ValueError(
            f"invalid backend_order {order!r}: must be a permutation of "
            f"{BACKEND_STAGES} keeping regalloc, schedule last")
    return tuple(order)


def _instr_count(module: Module) -> int:
    """Total instruction count — the IR size metric passes report."""
    return sum(
        len(block.instrs)
        for function in module.functions.values()
        for block in function.blocks.values()
    )


@contextmanager
def _staged(name: str, working: Module):
    """Observability wrapper for one pipeline stage: a ``pass:<name>``
    span nested in the surrounding pipeline span, a timing histogram
    (``pipeline.pass_seconds.<name>``), a run counter, and the stage's
    IR size delta (``pipeline.ir_delta.<name>``, signed).  With
    observability disabled this is a single guard check."""
    if not obs.enabled():
        yield
        return
    registry = obs.metrics()
    before = _instr_count(working) if registry is not None else 0
    start = time.perf_counter()
    with obs.span(f"pass:{name}"):
        yield
    if registry is not None:
        registry.observe(f"pipeline.pass_seconds.{name}",
                         time.perf_counter() - start)
        registry.inc(f"pipeline.pass_runs.{name}")
        registry.inc(f"pipeline.ir_delta.{name}",
                     _instr_count(working) - before)


@dataclass(frozen=True)
class CompilerOptions:
    """Pipeline configuration; priority hooks are the Meta Optimization
    attachment points, and a ``None`` hook is the pass's stock
    heuristic (Equation 1, Equation 2, ORC's, ...)."""

    machine: MachineDescription = DEFAULT_EPIC
    inline: bool = True
    unroll_factor: int = 2
    hyperblock: bool = True
    prefetch: bool = False
    hyperblock_priority: HyperblockPriority | None = None
    spill_priority: SpillPriority | None = None
    prefetch_priority: PrefetchPriority | None = None
    schedule_priority: SchedulePriority | None = None
    #: Prepare-stage hook: scores candidate unroll factors.  ``None``
    #: applies the historical fixed factor byte-for-byte.
    unroll_priority: object | None = None
    #: Backend stage ordering (FOGA-style flag search); only the
    #: hyperblock/prefetch prefix may permute — see
    #: :func:`validate_backend_order`.
    backend_order: tuple[str, ...] = BACKEND_STAGES
    hyperblock_threshold: float = 0.10
    #: Run the structural IR verifier between every pipeline stage
    #: (and on the final schedule).  Off by default: it roughly doubles
    #: compile time, so the GP loop enables it only when hunting a
    #: miscompile (see docs/VERIFY.md).
    verify_ir: bool = False
    #: Deployed heuristic: a :class:`~repro.serve.artifact.
    #: HeuristicArtifact` (duck-typed: anything with ``install(options)
    #: -> CompilerOptions``).  Resolved at the top of
    #: :func:`compile_backend` — the artifact's evolved priority is
    #: swapped into the hook its pass kind names, so any compile can
    #: run under a published artifact (see docs/SERVING.md).
    heuristic_artifact: object | None = None


def with_artifact(options: CompilerOptions) -> CompilerOptions:
    """The options a backend compile runs under: ``options`` with its
    ``heuristic_artifact`` (if any) installed in the hook it names."""
    if options.heuristic_artifact is None:
        return options
    return options.heuristic_artifact.install(options)


class PreparedProgram:
    """Candidate-independent compilation state, cacheable per benchmark.

    ("Candidate-independent" is relative to the backend case studies;
    for the unroll and flags cases :func:`prepare` itself is the
    candidate-dependent step and the harness re-runs it per genome.)"""

    def __init__(self, module: Module, profile: ModuleProfile,
                 options: CompilerOptions,
                 inline_report: InlineReport | None = None,
                 unroll_report: UnrollReport | None = None) -> None:
        self.module = module
        self.profile = profile
        self.options = options
        self.inline_report = inline_report
        self.unroll_report = unroll_report


@dataclass
class BackendReport:
    """Per-candidate compilation record."""

    hyperblock: dict[str, HyperblockReport] = field(default_factory=dict)
    prefetch: dict[str, PrefetchReport] = field(default_factory=dict)
    regalloc: dict[str, AllocationReport] = field(default_factory=dict)


def prepare(
    module: Module,
    train_inputs: dict[str, list[float | int]] | None = None,
    options: CompilerOptions | None = None,
    max_steps: int = 10_000_000,
) -> PreparedProgram:
    """Run candidate-independent stages and profile on the training
    input.  The input module is not mutated."""
    # Imported where a prepare starts: the profiler runs the simulator's
    # generated code, and a caller that only needs CompilerOptions must
    # load neither.
    from repro.passes.cleanup import cleanup_module
    from repro.passes.inline import inline_module
    from repro.passes.unroll import unroll_module
    from repro.profile.profiler import collect_profile

    options = options or CompilerOptions()
    working = module.clone()
    checkpoint = _make_checkpoint(working, options)
    checkpoint("input")
    inline_report = None
    unroll_report = None
    with obs.span("pipeline:prepare", module=module.name):
        if options.inline:
            with _staged("inline", working):
                inline_report = inline_module(working)
            checkpoint("inline")
        with _staged("cleanup", working):
            cleanup_module(working)
        checkpoint("cleanup")
        if options.unroll_priority is not None or options.unroll_factor >= 2:
            with _staged("unroll", working):
                unroll_report = unroll_module(
                    working, options.unroll_factor,
                    priority=options.unroll_priority)
                cleanup_module(working)
            checkpoint("unroll")
        with _staged("profile", working):
            profile = collect_profile(working, train_inputs,
                                      max_steps=max_steps)
    return PreparedProgram(module=working, profile=profile, options=options,
                           inline_report=inline_report,
                           unroll_report=unroll_report)


def _make_checkpoint(working: Module, options: CompilerOptions):
    """The per-stage ``verify_ir`` hook; a no-op unless enabled (only
    then is the verifier imported)."""

    def checkpoint(stage: str, allocated: bool = False) -> None:
        if options.verify_ir:
            from repro.verify.ir_verifier import verify_module

            verify_module(working, stage=stage, allocated=allocated,
                          machine=options.machine if allocated else None)

    return checkpoint


def _run_backend_stage(
    stage: str,
    working: Module,
    report: BackendReport,
    prepared: PreparedProgram,
    options: CompilerOptions,
    checkpoint,
    allocation_seeds: dict[str, AllocationSeed] | None = None,
) -> ScheduledModule | None:
    """Execute one backend stage in place; returns the ScheduledModule
    for the terminal ``schedule`` stage, None otherwise.  Both the full
    compile and a snapshot replay funnel through this dispatcher, so
    the suffix path can never drift from the reference semantics.
    ``allocation_seeds`` (function name -> seed, from a ``regalloc``
    snapshot) replace each function's round-one allocation analysis."""
    if stage == "hyperblock":
        if not options.hyperblock:
            return None
        from repro.passes.cleanup import cleanup_module
        from repro.passes.hyperblock import form_hyperblocks

        with _staged("hyperblock", working):
            for name, function in working.functions.items():
                report.hyperblock[name] = form_hyperblocks(
                    function,
                    options.machine,
                    prepared.profile.function(name),
                    options.hyperblock_priority,
                    rel_threshold=options.hyperblock_threshold,
                )
            cleanup_module(working)
        checkpoint("hyperblock")
        return None

    if stage == "prefetch":
        if not options.prefetch:
            return None
        from repro.passes.prefetch import insert_prefetches

        with _staged("prefetch", working):
            for name, function in working.functions.items():
                report.prefetch[name] = insert_prefetches(
                    function,
                    options.machine,
                    prepared.profile.function(name),
                    options.prefetch_priority,
                )
        checkpoint("prefetch")
        return None

    if stage == "regalloc":
        from repro.passes.regalloc import allocate_function

        seeds = allocation_seeds or {}
        with _staged("regalloc", working):
            for name, function in working.functions.items():
                freq = {
                    label: float(count)
                    for label, count
                    in prepared.profile.function(name).block_counts.items()
                }
                report.regalloc[name] = allocate_function(
                    function, options.machine, options.spill_priority, freq,
                    seed=seeds.get(name),
                )
        if seeds:
            obs.inc("pipeline.snapshot.seeded_allocations", len(seeds))
        checkpoint("regalloc", allocated=True)
        return None

    if stage == "schedule":
        from repro.passes.schedule import schedule_module

        with _staged("schedule", working):
            scheduled = schedule_module(working, options.machine,
                                        options.schedule_priority)
        if options.verify_ir:
            from repro.verify.ir_verifier import verify_scheduled

            verify_scheduled(scheduled, options.machine)
        return scheduled

    raise ValueError(f"unknown backend stage {stage!r}")


def run_prefix(prepared: PreparedProgram, options: CompilerOptions,
               stage: str) -> tuple[Module, BackendReport]:
    """Run the backend stages strictly before ``stage`` and return the
    working module plus the partial report — the state a
    :class:`~repro.passes.snapshot.PipelineSnapshot` deep-freezes.
    ``verify_ir`` checkpoints for the prefix stages fire here, once per
    snapshot build rather than once per candidate (the replayed IR is
    identical every time)."""
    options = with_artifact(options)
    if stage not in BACKEND_STAGES:
        raise ValueError(f"unknown backend stage {stage!r}")
    order = validate_backend_order(options.backend_order)
    working = prepared.module.clone()
    report = BackendReport()
    checkpoint = _make_checkpoint(working, options)
    with obs.span("pipeline:prefix", module=prepared.module.name,
                  stage=stage):
        for prior in order[:order.index(stage)]:
            _run_backend_stage(prior, working, report, prepared, options,
                               checkpoint)
    return working, report


def compile_backend(
    prepared: PreparedProgram,
    options: CompilerOptions | None = None,
    snapshot=None,
    stop_after: tuple[str, Callable[[object], bool]] | None = None,
) -> tuple[ScheduledModule | None, BackendReport]:
    """Clone the prepared module and run the candidate-dependent
    backend: hyperblocking, prefetching, allocation, scheduling.

    With ``snapshot`` (a :class:`~repro.passes.snapshot.
    PipelineSnapshot` built from this prepared program under
    prefix-equivalent options), the prefix stages are skipped: the
    working module and partial report are restored from the snapshot
    and only the suffix — ``snapshot.stage`` onward — executes; a
    ``regalloc`` snapshot also hands the allocator its round-one
    analysis.  The result is bit-identical to the full path
    (docs/FORKING.md).

    With ``stop_after=(stage, probe)``, ``probe`` is called with the
    IR right after ``stage`` runs — the working :class:`Module`, or
    the :class:`ScheduledModule` after ``schedule`` — and when it
    returns true the compile ends there: the remaining stages are
    skipped and the scheduled module returned is ``None``."""
    options = options or prepared.options
    options = with_artifact(options)
    order = validate_backend_order(options.backend_order)
    if snapshot is None:
        working = prepared.module.clone()
        report = BackendReport()
        stages = order
        seeds = None
        span_args = {"module": prepared.module.name}
    else:
        working, report = snapshot.restore()
        stages = order[order.index(snapshot.stage):]
        seeds = snapshot.allocation_seeds
        span_args = {"module": prepared.module.name,
                     "replay_from": snapshot.stage}
    checkpoint = _make_checkpoint(working, options)
    scheduled = None
    with obs.span("pipeline:backend", **span_args):
        for stage in stages:
            result = _run_backend_stage(stage, working, report, prepared,
                                        options, checkpoint, seeds)
            if result is not None:
                scheduled = result
            if stop_after is not None and stage == stop_after[0]:
                if stop_after[1](working if result is None else result):
                    return None, report
    return scheduled, report


def compile_module(
    module: Module,
    train_inputs: dict[str, list[float | int]] | None = None,
    options: CompilerOptions | None = None,
) -> tuple[ScheduledModule, BackendReport]:
    """One-shot convenience: prepare + backend with the same options."""
    prepared = prepare(module, train_inputs, options)
    return compile_backend(prepared)
