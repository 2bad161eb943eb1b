"""IR instructions.

Each instruction is a three-address operation, optionally *guarded* by a
predicate register (full predication, as on the paper's EPIC target):
when the guard evaluates false the instruction is squashed — it consumes
an issue slot but does not modify state.

Comparison into predicates follows IMPACT's two-target ``cmpp``: one
instruction defines a predicate and its complement simultaneously,
which is what if-conversion needs to guard the two sides of a diamond.
"""

from __future__ import annotations

import enum

from repro.ir.values import (
    INT,
    PRED,
    Imm,
    IRType,
    Operand,
    PReg,
    StackSlot,
    SymRef,
    VReg,
)


class Opcode(enum.Enum):
    # Integer ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FSQRT = "fsqrt"
    # Conversions
    ITOF = "itof"
    FTOI = "ftoi"
    # Compares
    CMP = "cmp"  # integer 0/1 result
    CMPP = "cmpp"  # predicate pair (dest = rel, dest2 = !rel)
    # Data movement
    MOV = "mov"
    LEA = "lea"  # materialize address of SymRef / StackSlot
    # Memory
    LOAD = "load"
    STORE = "store"
    PREFETCH = "prefetch"
    # Control
    BR = "br"
    JMP = "jmp"
    RET = "ret"
    CALL = "call"
    # Output (benchmark observable result channel)
    OUT = "out"

    __hash__ = object.__hash__  # by identity; see IRType


class Rel(enum.Enum):
    """Comparison relations for CMP/CMPP."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    __hash__ = object.__hash__  # by identity; see IRType


class FUClass(enum.Enum):
    """Functional-unit class an opcode issues to (Table 3)."""

    INT = "int"
    FP = "fp"
    MEM = "mem"
    BRANCH = "branch"

    __hash__ = object.__hash__  # by identity; see IRType


_FU_BY_OPCODE: dict[Opcode, FUClass] = {}
for _op in (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.NEG,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.CMP, Opcode.CMPP, Opcode.MOV, Opcode.LEA, Opcode.OUT,
):
    _FU_BY_OPCODE[_op] = FUClass.INT
for _op in (
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
    Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI,
):
    _FU_BY_OPCODE[_op] = FUClass.FP
for _op in (Opcode.LOAD, Opcode.STORE, Opcode.PREFETCH):
    _FU_BY_OPCODE[_op] = FUClass.MEM
for _op in (Opcode.BR, Opcode.JMP, Opcode.RET, Opcode.CALL):
    _FU_BY_OPCODE[_op] = FUClass.BRANCH

TERMINATORS = frozenset({Opcode.BR, Opcode.JMP, Opcode.RET})

COMMUTATIVE = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
     Opcode.FADD, Opcode.FMUL}
)

_NEXT_INSTR_ID = [0]


class Instr:
    """One IR instruction.

    Fields
    ------
    op:        the opcode.
    dest:      destination register (None for stores, branches, ...).
    srcs:      source operands, in positional order.
    guard:     predicate register guarding execution, or None.
    rel:       comparison relation (CMP/CMPP only).
    dest2:     second destination (CMPP's complement predicate).
    targets:   branch targets as block labels (BR: taken, fallthrough;
               JMP: single label).
    callee:    function name (CALL only).
    hazard:    True for operations the compiler must treat as hazards
               (indirect memory access, potentially-side-effecting
               calls) — feeds the hyperblock features of Table 4.
    uid:       process-wide unique id.  Every copy gets a fresh one —
               ``copy()``, and so ``Block.copy`` and
               ``Function.clone()`` — so a table keyed by uid (a
               profile's per-branch statistics) does not describe the
               instructions of a clone.
    """

    __slots__ = ("op", "dest", "srcs", "guard", "rel", "dest2", "targets",
                 "callee", "hazard", "uid")

    def __init__(self, op: Opcode, dest: VReg | PReg | None = None,
                 srcs: tuple[Operand, ...] = (),
                 guard: VReg | PReg | None = None, rel: Rel | None = None,
                 dest2: VReg | PReg | None = None,
                 targets: tuple[str, ...] = (), callee: str | None = None,
                 hazard: bool = False, uid: int = -1) -> None:
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.guard = guard
        self.rel = rel
        self.dest2 = dest2
        self.targets = targets
        self.callee = callee
        self.hazard = hazard
        if uid == -1:
            _NEXT_INSTR_ID[0] += 1
            uid = _NEXT_INSTR_ID[0]
        self.uid = uid

    # -- dataflow views --------------------------------------------------
    def reads(self) -> list[VReg | PReg]:
        """Registers this instruction reads (guard included)."""
        # A plain loop: a comprehension is a frame of its own, once per
        # call, and this is called once per instruction by every pass.
        regs = []
        for src in self.srcs:
            if src.__class__ is VReg or src.__class__ is PReg:
                regs.append(src)
        if self.guard is not None:
            regs.append(self.guard)
        return regs

    def writes(self) -> list[VReg | PReg]:
        """Registers this instruction writes."""
        regs = []
        if self.dest is not None:
            regs.append(self.dest)
        if self.dest2 is not None:
            regs.append(self.dest2)
        return regs

    @property
    def fu_class(self) -> FUClass:
        return _FU_BY_OPCODE[self.op]

    @property
    def is_memory(self) -> bool:
        return self.op in (Opcode.LOAD, Opcode.STORE, Opcode.PREFETCH)

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.CALL

    @property
    def has_side_effects(self) -> bool:
        """True when the instruction must not be removed even if its
        result is unused."""
        return self.op in (
            Opcode.STORE,
            Opcode.PREFETCH,
            Opcode.CALL,
            Opcode.OUT,
            Opcode.BR,
            Opcode.JMP,
            Opcode.RET,
        )

    def copy(self) -> "Instr":
        """A fresh instruction (new uid) with identical fields."""
        return Instr(
            op=self.op,
            dest=self.dest,
            srcs=self.srcs,
            guard=self.guard,
            rel=self.rel,
            dest2=self.dest2,
            targets=self.targets,
            callee=self.callee,
            hazard=self.hazard,
        )

    def __str__(self) -> str:
        parts: list[str] = []
        if self.guard is not None:
            parts.append(f"({self.guard})")
        if self.dest is not None:
            dests = str(self.dest)
            if self.dest2 is not None:
                dests += f", {self.dest2}"
            parts.append(f"{dests} = ")
        parts.append(self.op.value)
        if self.rel is not None:
            parts.append(f".{self.rel.value}")
        if self.callee is not None:
            parts.append(f" @{self.callee}")
        if self.srcs:
            parts.append(" " + ", ".join(str(src) for src in self.srcs))
        if self.targets:
            parts.append(" -> " + ", ".join(self.targets))
        return "".join(parts)


# ---------------------------------------------------------------------------
# Convenience constructors used by lowering and by tests
# ---------------------------------------------------------------------------


def mov(dest: VReg, src: Operand, guard: VReg | None = None) -> Instr:
    return Instr(Opcode.MOV, dest=dest, srcs=(src,), guard=guard)


def lea(dest: VReg, target: SymRef | StackSlot) -> Instr:
    return Instr(Opcode.LEA, dest=dest, srcs=(target,))


def load(dest: VReg, addr: Operand, hazard: bool = False,
         guard: VReg | None = None) -> Instr:
    return Instr(Opcode.LOAD, dest=dest, srcs=(addr,), hazard=hazard, guard=guard)


def store(addr: Operand, value: Operand, hazard: bool = False,
          guard: VReg | None = None) -> Instr:
    return Instr(Opcode.STORE, srcs=(addr, value), hazard=hazard, guard=guard)


def binop(op: Opcode, dest: VReg, left: Operand, right: Operand,
          guard: VReg | None = None) -> Instr:
    return Instr(op, dest=dest, srcs=(left, right), guard=guard)


def cmp(dest: VReg, rel: Rel, left: Operand, right: Operand,
        guard: VReg | None = None) -> Instr:
    return Instr(Opcode.CMP, dest=dest, srcs=(left, right), rel=rel, guard=guard)


def cmpp(ptrue: VReg, pfalse: VReg, rel: Rel, left: Operand,
         right: Operand, guard: VReg | None = None) -> Instr:
    if ptrue.vtype is not PRED or pfalse.vtype is not PRED:
        raise TypeError("cmpp destinations must be predicate registers")
    return Instr(
        Opcode.CMPP, dest=ptrue, dest2=pfalse, srcs=(left, right),
        rel=rel, guard=guard,
    )


def br(cond: Operand, taken: str, fallthrough: str) -> Instr:
    return Instr(Opcode.BR, srcs=(cond,), targets=(taken, fallthrough))


def jmp(target: str) -> Instr:
    return Instr(Opcode.JMP, targets=(target,))


def ret(value: Operand | None = None) -> Instr:
    return Instr(Opcode.RET, srcs=(value,) if value is not None else ())


def call(dest: VReg | None, callee: str, args: tuple[Operand, ...]) -> Instr:
    return Instr(Opcode.CALL, dest=dest, srcs=args, callee=callee, hazard=True)


def out(value: Operand) -> Instr:
    return Instr(Opcode.OUT, srcs=(value,))


def prefetch(addr: Operand, guard: VReg | None = None) -> Instr:
    return Instr(Opcode.PREFETCH, srcs=(addr,), guard=guard)
