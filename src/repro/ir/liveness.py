"""Liveness analysis.

Backward may-analysis over virtual registers.  Register allocation
builds live ranges from it (Chow–Hennessy's live ranges are exactly the
per-block segments of a variable's liveness); dead-code elimination uses
it to drop unused definitions.

Guarded (predicated) instructions are handled conservatively: a guarded
definition does *not* kill the destination (the old value survives when
the guard is false), but it does count as a def for interference
purposes.

The walks are keyed by register uid: ``block_use_def`` with
``uid -> VReg`` dicts (its sets hold the same registers, built in the
same order), ``dead_definitions`` with a live set of uids.  A uid is
as good as the register because a uid names one ``VReg`` per function
(``ir_verifier._check_vreg_uids``), and a clone keeps its ``VReg``
objects.
"""

from __future__ import annotations

from repro.ir.cfg import predecessors, successors
from repro.ir.function import Function
from repro.ir.values import VReg


class BlockLiveness:
    def __init__(self, use: set[VReg], defs: set[VReg], live_in: set[VReg],
                 live_out: set[VReg]) -> None:
        self.use = use
        self.defs = defs
        self.live_in = live_in
        self.live_out = live_out


def block_use_def(function: Function) -> dict[str, tuple[set[VReg], set[VReg]]]:
    """Upward-exposed uses and downward-visible defs per block.

    Each block is walked with dicts keyed by register uid, in the
    order registers are first seen; the sets are built from them, so
    a register is hashed once per set, not once per operand."""
    result: dict[str, tuple[set[VReg], set[VReg]]] = {}
    for label in function.block_order:
        use: dict[int, VReg] = {}
        defs: dict[int, VReg] = {}
        for instr in function.blocks[label].instrs:
            for reg in (*instr.srcs, instr.guard):
                if (reg.__class__ is VReg and reg.uid not in defs
                        and reg.uid not in use):
                    use[reg.uid] = reg
            for reg in (instr.dest, instr.dest2):
                if reg.__class__ is not VReg:
                    continue
                # A guarded def reads the old value implicitly.
                if (instr.guard is not None and reg.uid not in defs
                        and reg.uid not in use):
                    use[reg.uid] = reg
                if reg.uid not in defs:
                    defs[reg.uid] = reg
        result[label] = (set(use.values()), set(defs.values()))
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


def dead_definitions(function: Function) -> list[tuple[str, int]]:
    """(label, index) of instructions whose results are never used and
    which have no side effects — candidates for DCE.

    One backward walk per block from its ``live_out``, with the live
    set held as register uids: an instruction is dead when none of the
    virtual registers it writes is live after it.  A guarded write
    kills nothing, and reads include the guard."""
    liveness = analyze(function)
    dead: list[tuple[str, int]] = []
    for label in function.block_order:
        instrs = function.blocks[label].instrs
        live = {reg.uid for reg in liveness[label].live_out}
        found: list[int] = []
        for index in range(len(instrs) - 1, -1, -1):
            instr = instrs[index]
            dest, dest2 = instr.dest, instr.dest2
            if dest.__class__ is VReg or dest2.__class__ is VReg:
                # None: the slot writes no virtual register
                written = (dest.uid if dest.__class__ is VReg else None,
                           dest2.uid if dest2.__class__ is VReg else None)
                if live.isdisjoint(written) and not instr.has_side_effects:
                    found.append(index)
                if instr.guard is None:
                    live.difference_update(written)
            for reg in (*instr.srcs, instr.guard):
                if reg.__class__ is VReg:
                    live.add(reg.uid)
        dead += [(label, index) for index in reversed(found)]
    return dead
