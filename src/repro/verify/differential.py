"""Interpreter↔simulator differential oracle.

The functional interpreter (:mod:`repro.ir.interp`) defines MiniC's
reference semantics on the *unoptimized-backend* IR; the timing
simulator (:mod:`repro.machine.sim`) executes the fully optimized,
register-allocated, scheduled binary.  If the pipeline is correct the
two must agree bit-for-bit on every observable:

* the entry function's return value,
* the ``out()`` stream (order and values),
* the final contents of every global array (the program's I/O surface),
* *whether* the program faults (division by zero, step overrun) — both
  engines faulting counts as agreement, since the optimizer is free to
  reorder the fault point but not to add or remove one on the executed
  path.

The same interpreter run also checks the training profile: ``prepare``
collects it from generated code (``ProfilingRun``), and the ``profile``
channel holds it to the profile the interpreter's own control-flow
counters give for that run (:func:`compare_profiles`), at no extra
execution.

``run_differential`` compiles one MiniC source under a given
:class:`~repro.passes.pipeline.CompilerOptions`, runs both engines on
the same inputs, and reports the first difference as a structured
:class:`Divergence` naming the channel (return value / out stream /
global) and the pass configuration that produced the binary — which is
exactly what a GP-evolved priority function needs attached to its
fitness report when it miscompiles.

Float comparison is by bit pattern (NaN equals NaN, ``-0.0`` differs
from ``0.0``): both engines run the same IEEE-double Python arithmetic,
so any difference is a transformation bug, never roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.frontend import compile_source
from repro.ir.function import Module
from repro.ir.interp import Interpreter, InterpError, RunResult
from repro.machine.descr import MachineDescription
from repro.machine.sim import SimError, SimResult, Simulator
from repro.passes.pipeline import (
    CompilerOptions,
    compile_backend,
    prepare,
)
from repro.profile.profiler import ModuleProfile, profile_from_counts
from repro.verify.ir_verifier import IRVerifyError

Inputs = dict[str, list]


def values_equal(left, right) -> bool:
    """Bit-level observable equality: ints exact; floats by bit pattern
    so NaN == NaN and 0.0 != -0.0; int 1 and float 1.0 differ."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, float) != isinstance(right, float):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and math.copysign(1.0, left) == \
            math.copysign(1.0, right)
    return left == right


def _first_diff(left: list, right: list) -> int | None:
    """Index of the first differing element, or None when identical."""
    for index in range(max(len(left), len(right))):
        if index >= len(left) or index >= len(right):
            return index
        if not values_equal(left[index], right[index]):
            return index
    return None


@dataclass(frozen=True)
class Divergence:
    """One observable difference between the two engines."""

    #: "fault" | "return" | "out" | "global" | "verify" | "profile"
    channel: str
    detail: str
    #: differing global's name ("" for non-global channels)
    symbol: str = ""
    #: first differing index within the channel (-1 if not applicable)
    index: int = -1
    interp_value: object = None
    sim_value: object = None

    def to_json_dict(self) -> dict:
        return {
            "channel": self.channel,
            "detail": self.detail,
            "symbol": self.symbol,
            "index": self.index,
            "interp_value": _jsonable(self.interp_value),
            "sim_value": _jsonable(self.sim_value),
        }

    def __str__(self) -> str:
        where = self.channel
        if self.symbol:
            where += f" {self.symbol}"
        if self.index >= 0:
            where += f"[{self.index}]"
        return (f"{where}: interp={self.interp_value!r} "
                f"sim={self.sim_value!r} ({self.detail})")


def _jsonable(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


@dataclass
class DifferentialResult:
    """Outcome of one differential run."""

    equivalent: bool
    divergences: list[Divergence] = field(default_factory=list)
    interp_fault: str | None = None
    sim_fault: str | None = None
    interp_result: RunResult | None = None
    sim_result: SimResult | None = None
    options_summary: dict = field(default_factory=dict)

    @property
    def first(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "interp_fault": self.interp_fault,
            "sim_fault": self.sim_fault,
            "divergences": [d.to_json_dict() for d in self.divergences],
            "options": self.options_summary,
        }


def options_summary(options: CompilerOptions) -> dict:
    """The pass configuration recorded in a divergence report; a hook
    is ``custom`` unless it is ``None``, the pass's stock heuristic."""
    return {
        "machine": options.machine.name,
        "inline": options.inline,
        "unroll_factor": options.unroll_factor,
        "hyperblock": options.hyperblock,
        "prefetch": options.prefetch,
        "hyperblock_threshold": options.hyperblock_threshold,
        "verify_ir": options.verify_ir,
        **{f"custom_{hook}": getattr(options, hook) is not None
           for hook in ("hyperblock_priority", "spill_priority",
                        "prefetch_priority", "schedule_priority",
                        "unroll_priority")},
    }


def compare_executions(
    interp_result: RunResult | None,
    sim_result: SimResult | None,
    interp_globals: dict[str, list] | None,
    sim_globals: dict[str, list] | None,
    interp_fault: str | None = None,
    sim_fault: str | None = None,
) -> list[Divergence]:
    """Compare the observables of two completed (or faulted) runs."""
    if interp_fault is not None or sim_fault is not None:
        if interp_fault is not None and sim_fault is not None:
            return []  # both faulted: agreement
        return [Divergence(
            channel="fault",
            detail="one engine faulted and the other completed",
            interp_value=interp_fault,
            sim_value=sim_fault,
        )]

    divergences: list[Divergence] = []
    assert interp_result is not None and sim_result is not None
    if not values_equal(interp_result.return_value,
                        sim_result.return_value):
        divergences.append(Divergence(
            channel="return",
            detail="entry function return value differs",
            interp_value=interp_result.return_value,
            sim_value=sim_result.return_value,
        ))
    diff = _first_diff(interp_result.outputs, sim_result.outputs)
    if diff is not None:
        divergences.append(Divergence(
            channel="out",
            detail=f"out() stream differs at position {diff} "
                   f"(lengths {len(interp_result.outputs)}/"
                   f"{len(sim_result.outputs)})",
            index=diff,
            interp_value=(interp_result.outputs[diff]
                          if diff < len(interp_result.outputs) else None),
            sim_value=(sim_result.outputs[diff]
                       if diff < len(sim_result.outputs) else None),
        ))
    for name in sorted(interp_globals or ()):
        left = (interp_globals or {}).get(name, [])
        right = (sim_globals or {}).get(name, [])
        diff = _first_diff(left, right)
        if diff is not None:
            divergences.append(Divergence(
                channel="global",
                detail=f"final memory of global {name!r} differs",
                symbol=name,
                index=diff,
                interp_value=left[diff] if diff < len(left) else None,
                sim_value=right[diff] if diff < len(right) else None,
            ))
    return divergences


def _profile_fields(profile: ModuleProfile) -> dict[str, str]:
    """Everything a profile holds, in its order, as text: function
    order, each function's counts in insertion order, and the run's
    observables, steps and blocks (``repr`` keeps NaN equal to NaN and
    ``-0.0`` apart from ``0.0``, as :func:`values_equal` does)."""
    run = profile.run_result
    fields = {"functions": repr(list(profile.functions))}
    for name, function in profile.functions.items():
        for field_name in ("edge_counts", "block_counts", "branch_accuracy",
                           "loop_trips"):
            fields[f"{name}.{field_name}"] = repr(
                list(getattr(function, field_name).items()))
    fields["total_steps"] = repr(profile.total_steps)
    fields["run_result"] = repr(None if run is None else (
        run.return_value, run.outputs, run.steps, run.blocks_executed))
    return fields


def compare_profiles(generated: ModuleProfile,
                     reference: ModuleProfile) -> list[Divergence]:
    """The ``profile`` channel: the first field in which the profile
    collected from generated code differs from the one the reference
    interpreter's counters give for the same run."""
    ours, theirs = _profile_fields(generated), _profile_fields(reference)
    for key in {**theirs, **ours}:
        if ours.get(key) != theirs.get(key):
            return [Divergence(
                channel="profile",
                detail=f"training profile differs in {key}",
                interp_value=theirs.get(key),
                sim_value=ours.get(key),
            )]
    return []


def reference_run(
    module: Module,
    inputs: Inputs,
    entry: str = "main",
    max_steps: int = 10_000_000,
) -> tuple:
    """The reference interpreter's run of ``module`` on ``inputs``:
    ``(interpreter, result, globals, fault)``.  ``globals`` holds the
    final contents of every global array; on an :class:`InterpError`
    ``fault`` is its text, ``result`` None and ``globals`` empty.  The
    interpreter is returned for its control-flow counts."""
    interp = Interpreter(module, max_steps=max_steps)
    for name, values in inputs.items():
        interp.set_global(name, values)
    result = fault = None
    final_globals: dict[str, list] = {}
    try:
        result = interp.run(entry=entry)
        final_globals = {name: interp.read_global(name)
                         for name in module.globals}
    except InterpError as exc:
        fault = str(exc)
    return interp, result, final_globals, fault


def run_differential(
    source: str,
    inputs: Inputs | None = None,
    options: CompilerOptions | None = None,
    entry: str = "main",
    max_steps: int = 10_000_000,
    name: str = "program",
) -> DifferentialResult:
    """Compile ``source`` and execute it on both engines.

    The interpreter runs the *prepared* (pre-backend) module — the last
    point where the IR is machine-independent — and the simulator runs
    the scheduled binary, so the comparison covers every candidate-
    dependent transformation: hyperblock formation, prefetching,
    register allocation and scheduling.  With ``entry`` ``main`` the
    interpreter's run also checks ``prepared.profile``, which came from
    the same inputs and step budget (the ``profile`` channel).
    """
    options = options or CompilerOptions()
    inputs = inputs or {}
    module = compile_source(source, name)
    summary = options_summary(options)

    try:
        prepared = prepare(module, inputs, options, max_steps=max_steps)
        scheduled, _report = compile_backend(prepared)
    except IRVerifyError as exc:
        return DifferentialResult(
            equivalent=False,
            divergences=[Divergence(
                channel="verify",
                detail=f"IR verifier failed at stage {exc.stage!r}: "
                       f"{exc.issues[0]}",
                sim_value=str(exc.issues[0]),
            )],
            options_summary=summary,
        )

    interp, interp_result, interp_globals, interp_fault = reference_run(
        prepared.module, inputs, entry, max_steps)
    sim_fault = sim_result = None
    sim_globals: dict[str, list] = {}
    simulator = Simulator(scheduled, options.machine,
                          max_cycles=100 * max_steps)
    for global_name, values in inputs.items():
        simulator.set_global(global_name, values)
    try:
        sim_result = simulator.run(entry=entry)
        sim_globals = {
            global_name: simulator.read_global(global_name)
            for global_name in scheduled.module.globals
        }
    except SimError as exc:
        sim_fault = str(exc)

    divergences = compare_executions(
        interp_result, sim_result, interp_globals, sim_globals,
        interp_fault, sim_fault,
    )
    if entry == "main":  # the entry ``prepare`` profiles
        divergences += compare_profiles(
            prepared.profile,
            profile_from_counts(prepared.module, interp.control_counts(),
                                interp_result))
    return DifferentialResult(
        equivalent=not divergences,
        divergences=divergences,
        interp_fault=interp_fault,
        sim_fault=sim_fault,
        interp_result=interp_result,
        sim_result=sim_result,
        options_summary=summary,
    )
