"""Runtime profiling.

IMPACT's hyperblock heuristic consumes profile information
(``exec_ratio`` comes "from a runtime profile"), and the paper adds
branch-predictability statistics by modifying the profiler.  This
module reproduces both: it executes a module as generated Python, the
simulator's translation in profiling form
(:class:`~repro.machine.sim.ProfilingRun`: the module's own blocks in
program order, no scheduler, no timing), whose code counts every CFG
edge taken and runs a 2-bit predictor per static branch as it goes,
and reads those counts once, after the run, into per-function edge and
block counts, loop trip counts and per-branch predictability and taken
ratio (:func:`profile_from_counts`).

The functional interpreter counts the same things in its decode
(``Interpreter.control_counts``), and :func:`profile_from_counts`
turns either producer's counts into a profile, so only the counting
differs.  The interpreter's are the reference: the differential
oracle's ``profile`` channel (``repro.verify.differential``) holds the
generated profile to them on every ``repro verify`` and fuzz run.

Profiles are collected **on the training input** only; candidates are
then compiled with this fixed profile and evaluated on train or novel
inputs — matching the paper's methodology (the novel data set
"exercises different paths of control flow ... unused during
training").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.function import Module
from repro.ir.instr import Opcode

if TYPE_CHECKING:
    from repro.ir.interp import RunResult


@dataclass
class FunctionProfile:
    """Profile data for one function."""

    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    block_counts: dict[str, int] = field(default_factory=dict)
    branch_accuracy: dict[int, float] = field(default_factory=dict)
    #: average trip count per loop, keyed by header label; computed at
    #: profile time because later passes may rename back-edge sources.
    loop_trips: dict[str, float] = field(default_factory=dict)

    def edge_probability(self, source: str, target: str) -> float:
        """P(target | source executed); 0.5 when never observed."""
        total = self.block_counts.get(source, 0)
        if total == 0:
            return 0.5
        return self.edge_counts.get((source, target), 0) / total

    def count(self, label: str) -> int:
        return self.block_counts.get(label, 0)


class ModuleProfile:
    """Profiles for all functions plus whole-run statistics."""

    def __init__(self, functions: dict[str, FunctionProfile] | None = None,
                 total_steps: int = 0,
                 run_result: RunResult | None = None) -> None:
        self.functions = {} if functions is None else functions
        self.total_steps = total_steps
        self.run_result = run_result

    def function(self, name: str) -> FunctionProfile:
        return self.functions.setdefault(name, FunctionProfile())


def collect_profile(
    module: Module,
    inputs: dict[str, list[float | int]] | None = None,
    entry: str = "main",
    args: tuple[float | int, ...] = (),
    max_steps: int = 10_000_000,
) -> ModuleProfile:
    """Run ``module`` on ``inputs`` and collect the profile.

    ``inputs`` maps global array names to their contents (the benchmark
    dataset).  The run is the module's generated code in profiling form
    (:class:`~repro.machine.sim.ProfilingRun`); branch statistics are
    keyed by instruction uid, edge, block and loop statistics by block
    label.
    """
    # Imported on use: the passes read profiles without collecting one,
    # and must not load the simulator.
    from repro.machine.sim import ProfilingRun, SimError

    run = ProfilingRun(module, max_steps=max_steps)
    for name, values in (inputs or {}).items():
        run.set_global(name, values)
    try:
        result = run.run(entry=entry, args=args)
    except SimError:
        # A program that faults on the training input (e.g. division by
        # zero) still has to compile; the counts collected up to the
        # fault are the best profile available.
        result = None
    return profile_from_counts(module, run.control_counts(), result)


def profile_from_counts(
    module: Module,
    control_counts: dict[str, list[tuple]],
    result: RunResult | None,
) -> ModuleProfile:
    """The profile of one run of ``module`` from its control-flow
    counts, in the shape of ``Interpreter.control_counts`` (which
    ``ProfilingRun.control_counts`` shares), and its result (None when
    it faulted).  Functions come in the order the run first entered
    them, then the rest in module order.  A block's count is the edges
    taken into it, plus, for a function's entry block, its calls."""
    profile = ModuleProfile()
    if result is not None:
        profile.run_result = result
        profile.total_steps = result.steps

    # A block is counted once per edge into it, and a function's entry
    # block once per call as well.
    for name, (_calls, terminators) in control_counts.items():
        func_profile = profile.function(name)
        edge_counts = func_profile.edge_counts
        block_counts = func_profile.block_counts
        for label, instr, counter in terminators:
            if instr.op is Opcode.JMP:
                taken_edges = ((instr.targets[0], counter[0]),)
            else:
                _state, mispredictions, taken, not_taken = counter
                taken_edges = ((instr.targets[0], taken),
                               (instr.targets[1], not_taken))
                predictions = taken + not_taken
                if predictions:
                    func_profile.branch_accuracy[instr.uid] = (
                        1.0 - mispredictions / predictions)
            for target, count in taken_edges:
                if count:
                    key = (label, target)
                    edge_counts[key] = edge_counts.get(key, 0) + count
                    block_counts[target] = block_counts.get(target, 0) + count
    for name, function in module.functions.items():
        block_counts = profile.function(name).block_counts
        entry_label = function.block_order[0]
        calls, _terminators = control_counts.get(name, (0, ()))
        block_counts[entry_label] = block_counts.get(entry_label, 0) + calls

    # Loop trip-count estimates, keyed by (stable) header labels.
    from repro.ir.loops import find_loops

    for name, function in module.functions.items():
        func_profile = profile.function(name)
        for loop in find_loops(function):
            header_count = func_profile.block_counts.get(loop.header, 0)
            back_count = sum(
                func_profile.edge_counts.get((tail, loop.header), 0)
                for tail, _head in loop.back_edges
            )
            entries = max(1, header_count - back_count)
            func_profile.loop_trips[loop.header] = (
                back_count / entries if header_count else 0.0
            )

    return profile
