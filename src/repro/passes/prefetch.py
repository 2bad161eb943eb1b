"""Software data prefetching (case study III).

ORC extends Mowry's algorithm: loop memory references are analysed, and
a **Boolean-valued priority function** assigns a confidence to
prefetching each address; later passes insert ``prefetch`` instructions
for the confident ones.  The baseline confidence "is simply based upon
how well the compiler can estimate loop trip counts".

Our pass:

1. finds loops and their induction variables (``i = i + C`` updates in
   the loop body);
2. finds loads whose address is ``base + f(i)`` with ``f`` affine in an
   induction variable (a strided stream);
3. builds a feature environment per candidate (trip-count estimate from
   the profile, static trip count when bounds are constant, stride,
   loop depth, body size, ...);
4. asks the Boolean hook whether to prefetch; if yes, inserts
   ``prefetch [addr + stride * lookahead]`` next to the load, where the
   lookahead covers the memory latency at the loop's estimated cycles
   per iteration (Mowry's prefetch-distance rule).

The machine charges no latency for prefetches, but they occupy memory
issue slots and can evict useful lines — over-prefetching is punished
by the simulator the same way the paper observed ORC's overzealous
prefetching punishing real Itanium runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.ir.function import Function
from repro.ir.instr import Instr, Opcode, prefetch
from repro.ir.loops import Loop, find_loops
from repro.ir.values import Imm, INT, VReg
from repro.machine.descr import MachineDescription

if TYPE_CHECKING:
    from repro.profile.profiler import FunctionProfile

#: Boolean priority hook: feature env -> prefetch this access?
PrefetchPriority = Callable[[Mapping[str, float | bool]], bool]

PREFETCH_REAL_FEATURES = (
    "est_trip_count",   # profiled average iterations per entry
    "static_trip",      # statically exact trip count (0 if unknown)
    "stride",           # words advanced per iteration
    "loop_depth",       # nesting depth of the containing loop
    "body_ops",         # instructions in the loop body
    "mem_ops",          # memory operations in the loop body
    "line_reuse",       # iterations per cache line (line/stride), >=1
    "lookahead",        # chosen prefetch distance, iterations
)
PREFETCH_BOOL_FEATURES = (
    "trip_known",       # bounds statically constant
    "is_inner",         # innermost loop
    "unit_stride",      # |stride| == 1
)


def orc_confidence(env: Mapping[str, float | bool]) -> bool:
    """ORC's baseline: prefetch when the trip count is estimable and
    the loop is long enough to amortize the instructions.

    Thresholds sit at 7.5 so the expression form of this baseline
    (:data:`repro.metaopt.baselines.ORC_PREFETCH_TEXT`) is exactly
    equivalent; for integral trip counts this is the classic
    ">= 8 iterations" rule."""
    if env["trip_known"]:
        return env["static_trip"] > 7.5
    return env["est_trip_count"] > 7.5


def never_prefetch(env: Mapping[str, float | bool]) -> bool:
    """The 'shut prefetching off' comparator from Section 7.2.1."""
    return False


def always_prefetch(env: Mapping[str, float | bool]) -> bool:
    """Maximally aggressive comparator (for ablations)."""
    return True


@dataclass
class PrefetchReport:
    candidates: int = 0
    inserted: int = 0
    decisions: list[tuple[str, bool]] = field(default_factory=list)


def _induction_strides(function: Function, loop: Loop) -> dict[VReg, int]:
    """Registers updated as ``r = r + C`` exactly once per iteration."""
    strides: dict[VReg, int] = {}
    disqualified: set[VReg] = set()
    for label in loop.body:
        for instr in function.blocks[label].instrs:
            writes = [w for w in instr.writes() if isinstance(w, VReg)]
            if not writes:
                continue
            if (instr.op is Opcode.ADD and isinstance(instr.dest, VReg)
                    and instr.srcs and instr.srcs[0] == instr.dest
                    and isinstance(instr.srcs[1], Imm)
                    and instr.guard is None):
                # Multiple constant self-increments (e.g. an unrolled
                # body) sum to the per-trip stride.
                reg = instr.dest
                if reg not in disqualified:
                    strides[reg] = strides.get(reg, 0) \
                        + int(instr.srcs[1].value)
                continue
            for reg in writes:
                disqualified.add(reg)
                strides.pop(reg, None)
    return strides


def _affine_addresses(function: Function, loop: Loop,
                      strides: dict[VReg, int]) -> list[tuple[str, int, VReg, int]]:
    """Loads at (label, index) whose address register is ``base +
    induction`` computed in the same block; returns the effective
    stride of the stream."""
    results = []
    for label in sorted(loop.body):
        block = function.blocks[label]
        # addr_def[r] = (op, srcs) for same-block address arithmetic
        defs: dict[VReg, Instr] = {}
        for index, instr in enumerate(block.instrs):
            if instr.op is Opcode.LOAD:
                addr = instr.srcs[0]
                if not isinstance(addr, VReg):
                    continue
                stride = _stream_stride(addr, defs, strides)
                if stride:
                    results.append((label, index, addr, stride))
            for written in instr.writes():
                if isinstance(written, VReg):
                    defs[written] = instr
    return results


def _stream_stride(reg: VReg, defs: dict[VReg, Instr],
                   strides: dict[VReg, int], depth: int = 0) -> int:
    """Stride of the address stream rooted at ``reg`` (0 = not affine)."""
    if depth > 4:
        return 0
    if reg in strides:
        return strides[reg]
    definition = defs.get(reg)
    if definition is None:
        return 0
    if definition.op is Opcode.ADD:
        left, right = definition.srcs
        total = 0
        for operand in (left, right):
            if isinstance(operand, VReg):
                total += _stream_stride(operand, defs, strides, depth + 1)
            elif not isinstance(operand, Imm):
                return 0
        return total
    if definition.op is Opcode.MUL:
        left, right = definition.srcs
        if isinstance(right, Imm) and isinstance(left, VReg):
            return _stream_stride(left, defs, strides, depth + 1) \
                * int(right.value)
        if isinstance(left, Imm) and isinstance(right, VReg):
            return _stream_stride(right, defs, strides, depth + 1) \
                * int(left.value)
        return 0
    if definition.op is Opcode.MOV and isinstance(definition.srcs[0], VReg):
        return _stream_stride(definition.srcs[0], defs, strides, depth + 1)
    return 0


def _static_trip_count(function: Function, loop: Loop,
                       strides: dict[VReg, int]) -> int:
    """Exact trip count when header bounds are constant, else 0."""
    header = function.blocks[loop.header]
    term = header.instrs[-1]
    if term.op is not Opcode.BR:
        return 0
    cond = term.srcs[0]
    for instr in header.instrs[:-1]:
        if instr.dest == cond and instr.op is Opcode.CMP:
            left, right = instr.srcs
            if (isinstance(left, VReg) and left in strides
                    and isinstance(right, Imm)):
                from repro.passes.unroll import _constant_init, _trip_count
                start = _constant_init(function, loop.header, left)
                if start is None:
                    return 0
                trips = _trip_count(instr.rel, start, int(right.value),
                                    strides[left])
                return trips or 0
    return 0


def _profiled_trip_count(profile: FunctionProfile, function: Function,
                         loop: Loop) -> float:
    # Prefer the trip estimate computed at profile time (robust against
    # later passes renaming back-edge source blocks).
    stored = profile.loop_trips.get(loop.header)
    if stored is not None:
        return stored
    header_count = profile.count(loop.header)
    back_count = sum(
        profile.edge_counts.get((tail, loop.header), 0)
        for tail, _head in loop.back_edges
    )
    entries = max(1, header_count - back_count)
    if header_count == 0:
        return 0.0
    return back_count / entries


class PrefetchInsertion:
    """Runs prefetch analysis + insertion over one function, in place."""

    def __init__(
        self,
        function: Function,
        machine: MachineDescription,
        profile: FunctionProfile,
        priority: PrefetchPriority = orc_confidence,
        max_lookahead: int = 32,
    ) -> None:
        self.function = function
        self.machine = machine
        self.profile = profile
        self.priority = priority
        self.max_lookahead = max_lookahead
        self.report = PrefetchReport()

    def run(self) -> PrefetchReport:
        function = self.function
        line_words = self.machine.cache_levels[0].line_bytes // 8
        insertions: list[tuple[str, int, VReg, int]] = []
        for loop in find_loops(function):
            strides = _induction_strides(function, loop)
            if not strides:
                continue
            body_ops = sum(
                len(function.blocks[label].instrs) for label in loop.body
            )
            mem_ops = sum(
                1
                for label in loop.body
                for instr in function.blocks[label].instrs
                if instr.is_memory
            )
            static_trip = _static_trip_count(function, loop, strides)
            est_trip = _profiled_trip_count(self.profile, function, loop)
            if static_trip and not est_trip:
                est_trip = float(static_trip)

            candidates = _affine_addresses(function, loop, strides)
            for label, index, addr_reg, stride in candidates:
                self.report.candidates += 1
                iter_cycles = max(1.0, body_ops / self.machine.issue_width)
                lookahead = max(
                    1, min(self.max_lookahead,
                           round(self.machine.memory_latency / iter_cycles)),
                )
                env: dict[str, float | bool] = {
                    "est_trip_count": est_trip,
                    "static_trip": float(static_trip),
                    "stride": float(stride),
                    "loop_depth": float(loop.depth),
                    "body_ops": float(body_ops),
                    "mem_ops": float(mem_ops),
                    "line_reuse": max(1.0, line_words / max(1, abs(stride))),
                    "lookahead": float(lookahead),
                    "trip_known": static_trip > 0,
                    "is_inner": not loop.children,
                    "unit_stride": abs(stride) == 1,
                }
                try:
                    decision = bool(self.priority(env))
                except (ArithmeticError, ValueError, OverflowError):
                    decision = False
                self.report.decisions.append((f"{label}#{index}", decision))
                if decision:
                    insertions.append((label, index, addr_reg,
                                       stride * lookahead))

        # Insert from the bottom up so indices stay valid.
        by_block: dict[str, list[tuple[int, VReg, int]]] = {}
        for label, index, addr_reg, distance in insertions:
            by_block.setdefault(label, []).append((index, addr_reg, distance))
        for label, entries in by_block.items():
            block = function.blocks[label]
            for index, addr_reg, distance in sorted(entries, reverse=True):
                future = function.new_vreg(INT, "pfa")
                block.instrs[index + 1:index + 1] = [
                    Instr(Opcode.ADD, dest=future,
                          srcs=(addr_reg, Imm(distance))),
                    prefetch(future),
                ]
                self.report.inserted += 1
        return self.report


def insert_prefetches(
    function: Function,
    machine: MachineDescription,
    profile: FunctionProfile,
    priority: PrefetchPriority = orc_confidence,
) -> PrefetchReport:
    return PrefetchInsertion(function, machine, profile, priority).run()

