"""Classic scalar optimizations: constant folding, copy propagation,
dead-code elimination and algebraic peephole rewrites.

These run before profiling/hyperblocking (the paper enables "several
classic optimizations" in its Trimaran configuration) and again after
if-conversion to clean up predicated code.  All of them are
predication-aware: guarded instructions are never treated as
unconditional definitions.

Copy propagation and increment folding key their tables by register
uid, and test operand kinds by class, so no register is hashed per
operand.  A uid is as good as the register because a uid names one
``VReg`` per function (``ir_verifier._check_vreg_uids``), and a clone
keeps its ``VReg`` objects.
"""

from __future__ import annotations

from repro.ir.cfg import merge_straightline, remove_unreachable
from repro.ir.function import Function, Module
from repro.ir.instr import Instr, Opcode, Rel, jmp, mov
from repro.ir.liveness import dead_definitions
from repro.ir.values import FLOAT, Imm, INT, VReg

#: Pure opcodes we are willing to fold when all sources are immediate.
_FOLDABLE = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.NEG,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
    Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI, Opcode.CMP,
})


def constant_fold_function(function: Function) -> int:
    """Evaluate instructions whose operands are all immediates.

    Returns the number of instructions folded.  Guarded instructions
    are foldable too (folding preserves the guard on the resulting
    ``mov``).
    """
    # The interpreter's arithmetic is the reference for folding; it is
    # imported here so that loading the passes does not load it.
    from repro.ir.interp import InterpError, apply_scalar_op

    folded = 0
    for block in function.ordered_blocks():
        for index, instr in enumerate(block.instrs):
            if instr.op not in _FOLDABLE or instr.dest is None:
                continue
            if not instr.srcs or not all(
                isinstance(src, Imm) for src in instr.srcs
            ):
                continue
            try:
                value = apply_scalar_op(
                    instr.op, instr.rel,
                    tuple(src.value for src in instr.srcs),
                )
            except InterpError:
                continue  # e.g. division by zero: leave for runtime
            vtype = FLOAT if isinstance(value, float) else INT
            block.instrs[index] = Instr(
                Opcode.MOV, dest=instr.dest, srcs=(Imm(value, vtype),),
                guard=instr.guard,
            )
            folded += 1
    return folded


def copy_propagate_function(function: Function) -> int:
    """Local copy/constant propagation.

    Within each block, uses of a register defined by an *unguarded*
    ``mov`` are replaced by the mov's source until either side is
    redefined.  Returns the number of operands rewritten.
    """
    rewritten = 0
    for block in function.ordered_blocks():
        #: destination uid -> the register or immediate it copies
        copies: dict[int, VReg | Imm] = {}
        #: uids of registers some entry of ``copies`` may hold (a
        #: superset: a write to any other register kills no entry)
        copied: set[int] = set()
        for instr in block.instrs:
            # Rewrite sources first.
            if copies:
                new_srcs = None
                for position, src in enumerate(instr.srcs):
                    if src.__class__ is VReg and src.uid in copies:
                        if new_srcs is None:
                            new_srcs = list(instr.srcs)
                        new_srcs[position] = copies[src.uid]
                        rewritten += 1
                if new_srcs is not None:
                    instr.srcs = tuple(new_srcs)
                guard = instr.guard
                if guard.__class__ is VReg and guard.uid in copies:
                    replacement = copies[guard.uid]
                    if replacement.__class__ is VReg:
                        instr.guard = replacement
                        rewritten += 1

            # Kill invalidated copies.
            for written in (instr.dest, instr.dest2):
                if written.__class__ is not VReg:
                    continue
                uid = written.uid
                if uid in copies:
                    del copies[uid]
                if uid in copied:
                    copied.remove(uid)
                    for key in [key for key, value in copies.items()
                                if value.__class__ is VReg
                                and value.uid == uid]:
                        del copies[key]

            # Record new copies from unguarded movs.
            dest = instr.dest
            if (instr.op is Opcode.MOV and instr.guard is None
                    and dest.__class__ is VReg):
                source = instr.srcs[0]
                if source.__class__ is Imm:
                    copies[dest.uid] = source
                elif source.__class__ is VReg and source.uid != dest.uid:
                    copies[dest.uid] = source
                    copied.add(source.uid)
    return rewritten


def dce_function(function: Function) -> int:
    """Remove side-effect-free instructions whose results are dead.

    Iterates to a fixed point (removing one layer of dead code exposes
    the next).  Returns total instructions removed.
    """
    removed_total = 0
    while True:
        dead = dead_definitions(function)
        if not dead:
            return removed_total
        doomed = {(label, index) for label, index in dead}
        for label in function.block_order:
            block = function.blocks[label]
            block.instrs = [
                instr for index, instr in enumerate(block.instrs)
                if (label, index) not in doomed
            ]
        removed_total += len(doomed)


_IDENTITY_FOLDS = {
    # (op, operand position of the neutral element, neutral value)
    (Opcode.ADD, 1, 0), (Opcode.ADD, 0, 0),
    (Opcode.SUB, 1, 0),
    (Opcode.MUL, 1, 1), (Opcode.MUL, 0, 1),
    (Opcode.DIV, 1, 1),
    (Opcode.SHL, 1, 0), (Opcode.SHR, 1, 0),
    (Opcode.OR, 1, 0), (Opcode.OR, 0, 0),
    (Opcode.XOR, 1, 0), (Opcode.XOR, 0, 0),
    (Opcode.FADD, 1, 0.0), (Opcode.FADD, 0, 0.0),
    (Opcode.FSUB, 1, 0.0),
    (Opcode.FMUL, 1, 1.0), (Opcode.FMUL, 0, 1.0),
    (Opcode.FDIV, 1, 1.0),
}


def peephole_function(function: Function) -> int:
    """Algebraic identities and branch simplification.

    * ``x + 0``, ``x * 1``, ``x << 0``, ... collapse to ``mov``;
    * ``x * 0`` collapses to ``mov 0`` (integer only — float keeps NaN
      semantics out of scope by design, MiniC has no NaNs);
    * ``br`` on a constant condition becomes ``jmp``.
    """
    changed = 0
    for block in function.ordered_blocks():
        for index, instr in enumerate(block.instrs):
            if instr.dest is None or len(instr.srcs) != 2:
                if instr.op is Opcode.BR and isinstance(instr.srcs[0], Imm):
                    target = (instr.targets[0] if instr.srcs[0].value
                              else instr.targets[1])
                    block.instrs[index] = jmp(target)
                    changed += 1
                continue
            left, right = instr.srcs
            for operand_pos, operand in ((0, left), (1, right)):
                if not isinstance(operand, Imm):
                    continue
                key = (instr.op, operand_pos, operand.value)
                if key in _IDENTITY_FOLDS:
                    other = right if operand_pos == 0 else left
                    block.instrs[index] = mov(instr.dest, other,
                                              guard=instr.guard)
                    changed += 1
                    break
                if (instr.op is Opcode.MUL and operand.value == 0):
                    block.instrs[index] = mov(instr.dest, Imm(0, INT),
                                              guard=instr.guard)
                    changed += 1
                    break
    return changed


def fold_increments_function(function: Function) -> int:
    """Fold ``t = r OP imm ... r = mov t`` into ``r = r OP imm``.

    The frontend lowers ``i = i + 1`` through a temporary; folding it
    back exposes the canonical self-increment form that induction-
    variable analysis (unrolling, prefetch stride detection) matches.
    Legal when ``t`` has no other use and ``r`` is neither read nor
    written between the two instructions.
    """
    #: register uid -> number of reads (guards included)
    use_counts: dict[int, int] = {}
    for block in function.ordered_blocks():
        for instr in block.instrs:
            for reg in (*instr.srcs, instr.guard):
                if reg.__class__ is VReg:
                    use_counts[reg.uid] = use_counts.get(reg.uid, 0) + 1

    folded = 0
    for block in function.ordered_blocks():
        #: register uid -> index of its latest definition so far
        index_of_def: dict[int, int] = {}
        kill: set[int] = set()
        for index, instr in enumerate(block.instrs):
            target = instr.dest
            if (instr.op is Opcode.MOV and instr.guard is None
                    and target.__class__ is VReg
                    and instr.srcs[0].__class__ is VReg):
                temp = instr.srcs[0]
                def_index = index_of_def.get(temp.uid)
                if (def_index is not None
                        and use_counts.get(temp.uid, 0) == 1):
                    producer = block.instrs[def_index]
                    first = producer.srcs[0] if producer.srcs else None
                    if (producer.guard is None
                            and first.__class__ is VReg
                            and first.uid == target.uid
                            and producer.op in _FOLDABLE
                            and len(producer.writes()) == 1
                            and _untouched_between(
                                block.instrs[def_index + 1:index],
                                (target.uid, temp.uid))):
                        producer.dest = target
                        kill.add(index)
                        folded += 1
            for written in (instr.dest, instr.dest2):
                if written.__class__ is VReg:
                    index_of_def[written.uid] = index
        if kill:
            block.instrs = [
                instr for index, instr in enumerate(block.instrs)
                if index not in kill
            ]
    return folded


def _untouched_between(instrs: list[Instr], uids: tuple[int, int]) -> bool:
    """True when no instruction of ``instrs`` reads or writes a virtual
    register whose uid is in ``uids``."""
    for instr in instrs:
        for reg in (*instr.srcs, instr.guard, instr.dest, instr.dest2):
            if reg.__class__ is VReg and reg.uid in uids:
                return False
    return True


def cleanup_function(function: Function, max_iterations: int = 8) -> None:
    """Run the scalar cleanup pipeline to a fixed point."""
    for _ in range(max_iterations):
        changed = 0
        changed += constant_fold_function(function)
        changed += copy_propagate_function(function)
        changed += peephole_function(function)
        changed += fold_increments_function(function)
        changed += dce_function(function)
        changed += remove_unreachable(function)
        changed += merge_straightline(function)
        if changed == 0:
            break


def cleanup_module(module: Module) -> None:
    for function in module.functions.values():
        cleanup_function(function)
