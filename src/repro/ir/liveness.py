"""Liveness analysis.

Backward may-analysis over virtual registers.  Register allocation
builds live ranges from it (Chow–Hennessy's live ranges are exactly the
per-block segments of a variable's liveness); dead-code elimination uses
it to drop unused definitions.

Guarded (predicated) instructions are handled conservatively: a guarded
definition does *not* kill the destination (the old value survives when
the guard is false), but it does count as a def for interference
purposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import predecessors, successors
from repro.ir.function import Function
from repro.ir.values import VReg


@dataclass
class BlockLiveness:
    use: set[VReg]
    defs: set[VReg]
    live_in: set[VReg]
    live_out: set[VReg]


def block_use_def(function: Function) -> dict[str, tuple[set[VReg], set[VReg]]]:
    """Upward-exposed uses and downward-visible defs per block."""
    result: dict[str, tuple[set[VReg], set[VReg]]] = {}
    for label in function.block_order:
        use: set[VReg] = set()
        defs: set[VReg] = set()
        for instr in function.blocks[label].instrs:
            for reg in instr.reads():
                if isinstance(reg, VReg) and reg not in defs:
                    use.add(reg)
            for reg in instr.writes():
                if isinstance(reg, VReg) and instr.guard is None:
                    defs.add(reg)
                elif isinstance(reg, VReg):
                    # A guarded def reads the old value implicitly.
                    if reg not in defs:
                        use.add(reg)
                    defs.add(reg)
        result[label] = (use, defs)
    return result


def analyze(function: Function) -> dict[str, BlockLiveness]:
    """Fixed-point live-in/live-out per block."""
    use_def = block_use_def(function)
    succs = successors(function)
    live_in: dict[str, set[VReg]] = {lbl: set() for lbl in function.block_order}
    live_out: dict[str, set[VReg]] = {lbl: set() for lbl in function.block_order}

    changed = True
    while changed:
        changed = False
        for label in reversed(function.block_order):
            out: set[VReg] = set()
            for succ in succs[label]:
                out |= live_in[succ]
            use, defs = use_def[label]
            inn = use | (out - defs)
            if out != live_out[label] or inn != live_in[label]:
                live_out[label] = out
                live_in[label] = inn
                changed = True

    return {
        label: BlockLiveness(
            use=use_def[label][0],
            defs=use_def[label][1],
            live_in=live_in[label],
            live_out=live_out[label],
        )
        for label in function.block_order
    }


def live_at_instruction(
    function: Function,
    liveness: dict[str, BlockLiveness] | None = None,
) -> dict[int, set[VReg]]:
    """Registers live *after* each instruction, keyed by instruction uid.

    Used to build precise interference graphs.  ``liveness`` is the
    result of :func:`analyze` on ``function`` when the caller already
    has it; the fixed point is not run a second time.
    """
    if liveness is None:
        liveness = analyze(function)
    live_after: dict[int, set[VReg]] = {}
    for label in function.block_order:
        block = function.blocks[label]
        live = set(liveness[label].live_out)
        for instr in reversed(block.instrs):
            live_after[instr.uid] = set(live)
            for reg in instr.writes():
                if isinstance(reg, VReg) and instr.guard is None:
                    live.discard(reg)
            for reg in instr.reads():
                if isinstance(reg, VReg):
                    live.add(reg)
    return live_after


def dead_definitions(function: Function) -> list[tuple[str, int]]:
    """(label, index) of instructions whose results are never used and
    which have no side effects — candidates for DCE."""
    live_after = live_at_instruction(function)
    dead: list[tuple[str, int]] = []
    for label in function.block_order:
        block = function.blocks[label]
        for index, instr in enumerate(block.instrs):
            if instr.has_side_effects or not instr.writes():
                continue
            written = [r for r in instr.writes() if isinstance(r, VReg)]
            if written and all(
                reg not in live_after[instr.uid] for reg in written
            ):
                dead.append((label, index))
    return dead
