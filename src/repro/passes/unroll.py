"""Loop unrolling for counted loops with constant bounds.

One of the "classic optimizations" the paper's Trimaran configuration
enables.  We unroll only when correctness is decidable statically:

* the loop has the canonical lowered shape ``header(cmp i, K; br) ->
  body -> step(i = i + C; jmp header)`` with a single-block body and a
  single-block step;
* ``i`` is initialized to a constant immediately before the loop, is
  only modified in the step block, and the trip count is exact and
  divisible by the unroll factor.

Under those conditions the body is replicated ``factor`` times and the
step constant scaled, preserving semantics exactly (no epilogue
needed).

Legality analysis (shape discovery, trip counting) is factor-
independent and lives in :func:`analyze_loop`; *which* legal factor to
apply is a policy question, and since PR 9 an evolvable one: a priority
hook scores each candidate factor's feature environment and the
highest-scoring positive factor wins (no positive score means the loop
stays rolled).  ``priority=None`` applies the fixed ``factor`` argument
exactly as the historical pass did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import predecessors
from repro.ir.function import Function, Module
from repro.ir.instr import Instr, Opcode, Rel, jmp
from repro.ir.loops import find_loops
from repro.ir.values import Imm, VReg

#: Candidate unroll factors an evolved policy chooses among.
UNROLL_CANDIDATE_FACTORS = (2, 4, 8)

_FP_OPS = frozenset({
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    Opcode.FNEG, Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI,
})


@dataclass(frozen=True)
class UnrollDecision:
    """One analyzable loop judged by the unrolling policy."""

    function: str
    header: str
    trip_count: int
    body_ops: int
    priorities: dict  # candidate factor -> priority value
    factor: int       # chosen factor, 0 when the loop stays rolled


class UnrollReport:
    def __init__(self, loops_seen: int = 0, loops_unrolled: int = 0,
                 copies_added: int = 0,
                 decisions: list[UnrollDecision] | None = None) -> None:
        self.loops_seen = loops_seen
        self.loops_unrolled = loops_unrolled
        self.copies_added = copies_added
        self.decisions = [] if decisions is None else decisions


class LoopPlan:
    """Everything factor-independent about one unrollable loop."""

    def __init__(self, header: str, chain: list[str],
                 flattened: list[Instr], trips: int, step: int,
                 mem_ops: int, has_fp: bool) -> None:
        self.header = header
        self.chain = chain
        self.flattened = flattened
        self.trips = trips
        self.step = step
        self.mem_ops = mem_ops
        self.has_fp = has_fp

    def legal_factors(self) -> tuple[int, ...]:
        return tuple(f for f in UNROLL_CANDIDATE_FACTORS
                     if self.trips % f == 0)

    def features(self, factor: int) -> dict:
        return {
            "factor": float(factor),
            "trip_count": float(self.trips),
            "body_ops": float(len(self.flattened)),
            "step": float(self.step),
            "mem_ops": float(self.mem_ops),
            "has_memory": self.mem_ops > 0,
            "has_fp": self.has_fp,
        }


def _constant_init(function: Function, header: str, reg: VReg) -> int | None:
    """The constant assigned to ``reg`` immediately before entering the
    loop, if that can be established from the header's non-loop
    predecessor block."""
    preds = predecessors(function)
    loops = {loop.header: loop for loop in find_loops(function)}
    loop = loops.get(header)
    if loop is None:
        return None
    outside = [p for p in preds[header] if p not in loop.body]
    if len(outside) != 1:
        return None
    value: int | None = None
    for instr in function.blocks[outside[0]].instrs:
        writes = instr.writes()
        if reg in writes:
            if (instr.op is Opcode.MOV and isinstance(instr.srcs[0], Imm)
                    and instr.guard is None):
                value = int(instr.srcs[0].value)
            else:
                value = None
    return value


def _trip_count(rel: Rel, start: int, bound: int, step: int) -> int | None:
    """Exact iteration count of ``for (i=start; i REL bound; i+=step)``."""
    if step == 0:
        return None
    count = 0
    i = start
    # Bounded walk: anything above this is not worth unrolling anyway.
    for _ in range(1 << 20):
        if rel is Rel.LT and not i < bound:
            return count
        if rel is Rel.LE and not i <= bound:
            return count
        if rel is Rel.GT and not i > bound:
            return count
        if rel is Rel.GE and not i >= bound:
            return count
        if rel in (Rel.EQ, Rel.NE):
            return None
        count += 1
        i += step
    return None


def analyze_loop(function: Function, loop,
                 max_body_ops: int = 40) -> LoopPlan | None:
    """Factor-independent legality analysis of one innermost loop;
    ``None`` when the loop cannot be unrolled by any factor."""
    if len(loop.body) not in (2, 3):
        return None  # header + body [+ step]
    header_block = function.blocks[loop.header]
    term = header_block.instrs[-1]
    if term.op is not Opcode.BR:
        return None

    # Canonical shape discovery: the body is a 1- or 2-block chain
    # header -> body [-> step] -> header.
    body_label = None
    for candidate in term.targets:
        if candidate in loop.body and candidate != loop.header:
            body_label = candidate
    if body_label is None:
        return None
    chain = [body_label]
    current = function.blocks[body_label]
    while current.instrs[-1].op is Opcode.JMP \
            and current.instrs[-1].targets[0] != loop.header:
        next_label = current.instrs[-1].targets[0]
        if next_label not in loop.body or next_label in chain:
            chain = []
            break
        chain.append(next_label)
        current = function.blocks[next_label]
        if len(chain) > 2:
            chain = []
            break
    if not chain or current.instrs[-1].op is not Opcode.JMP:
        return None
    if set(chain) | {loop.header} != loop.body:
        return None

    flattened: list[Instr] = []
    for label in chain:
        flattened.extend(function.blocks[label].instrs[:-1])
    if not flattened:
        return None

    # Induction update: exactly one "i = add i, C", and it must be
    # the final operation so replicated copies see per-copy values.
    updates = [
        instr for instr in flattened
        if instr.op is Opcode.ADD and isinstance(instr.dest, VReg)
        and instr.srcs and instr.srcs[0] == instr.dest
        and isinstance(instr.srcs[1], Imm) and instr.guard is None
    ]
    if len(updates) != 1 or flattened[-1] is not updates[0]:
        return None
    induction = updates[0].dest
    step_const = int(updates[0].srcs[1].value)

    # Header condition: cmp REL induction, K feeding the branch.
    cond_reg = term.srcs[0]
    cmp_instr = None
    for instr in header_block.instrs[:-1]:
        if instr.dest == cond_reg and instr.op is Opcode.CMP:
            cmp_instr = instr
    if cmp_instr is None:
        return None
    if not (cmp_instr.srcs[0] == induction
            and isinstance(cmp_instr.srcs[1], Imm)):
        return None
    bound = int(cmp_instr.srcs[1].value)
    # The branch must take the body when the comparison holds.
    if term.targets[0] != body_label:
        return None

    start = _constant_init(function, loop.header, induction)
    if start is None:
        return None
    trips = _trip_count(cmp_instr.rel, start, bound, step_const)
    if trips is None or trips == 0:
        return None
    if len(flattened) > max_body_ops:
        return None
    # The induction variable must have no other modification point.
    if sum(1 for instr in flattened
           if induction in instr.writes()) != 1:
        return None

    mem_ops = sum(1 for instr in flattened
                  if instr.op in (Opcode.LOAD, Opcode.STORE))
    has_fp = any(instr.op in _FP_OPS for instr in flattened)
    return LoopPlan(header=loop.header, chain=chain, flattened=flattened,
                    trips=trips, step=step_const, mem_ops=mem_ops,
                    has_fp=has_fp)


def _apply(function: Function, plan: LoopPlan, factor: int) -> int:
    """Replicate (body ; i += C) ``factor`` times into the first chain
    block; the remaining chain block (if any) empties into a jump.
    Returns copies added."""
    body_block = function.blocks[plan.chain[0]]
    replicated: list[Instr] = []
    for copy_index in range(factor):
        if copy_index == 0:
            replicated.extend(plan.flattened)
        else:
            replicated.extend(instr.copy() for instr in plan.flattened)
    replicated.append(jmp(plan.header))
    body_block.instrs = replicated
    for label in plan.chain[1:]:
        function.remove_block(label)
    return factor - 1


def _choose_factor(plan: LoopPlan, priority) -> tuple[int, dict]:
    """Score every legal candidate factor; highest positive wins (ties
    break toward the smaller factor).  Returns (factor or 0, scores)."""
    scores: dict[int, float] = {}
    best_factor, best_value = 0, 0.0
    for candidate in plan.legal_factors():
        value = float(priority(plan.features(candidate)))
        scores[candidate] = value
        if value > best_value:
            best_factor, best_value = candidate, value
    return best_factor, scores


def unroll_function(function: Function, factor: int = 2,
                    max_body_ops: int = 40, priority=None,
                    report: UnrollReport | None = None) -> UnrollReport:
    """Unroll eligible innermost loops in place."""
    if report is None:
        report = UnrollReport()
    if priority is None and factor < 2:
        return report
    loops = find_loops(function)
    for loop in loops:
        if loop.children:
            continue  # innermost only
        report.loops_seen += 1
        plan = analyze_loop(function, loop, max_body_ops)
        if plan is None:
            continue
        if priority is None:
            chosen = factor if plan.trips % factor == 0 else 0
            scores = {factor: 1.0 if chosen else 0.0}
        else:
            chosen, scores = _choose_factor(plan, priority)
        report.decisions.append(UnrollDecision(
            function=function.name, header=plan.header,
            trip_count=plan.trips, body_ops=len(plan.flattened),
            priorities=scores, factor=chosen))
        if chosen == 0:
            continue
        report.copies_added += _apply(function, plan, chosen)
        report.loops_unrolled += 1
    return report


def unroll_module(module: Module, factor: int = 2,
                  priority=None) -> UnrollReport:
    total = UnrollReport()
    for function in module.functions.values():
        unroll_function(function, factor, priority=priority, report=total)
    return total
