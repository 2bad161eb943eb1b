"""IR value kinds: virtual/physical registers and immediates.

The IR is a load/store three-address form over an infinite set of
*virtual registers*.  Register allocation later maps virtual registers
onto the machine's physical register files (general-purpose, floating
point and predicate — Table 3 gives the EPIC machine 64 + 64 + 256).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class IRType(enum.Enum):
    """Value types carried by registers and memory."""

    INT = "int"
    FLOAT = "float"
    PRED = "pred"

    # Members are singletons and Enum equality is identity, so the
    # identity hash agrees with it.  ``Enum.__hash__`` is a Python
    # function hashing the member's name: one frame per set or dict
    # probe, on paths that probe once per instruction visit.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IRType.{self.name}"


INT = IRType.INT
FLOAT = IRType.FLOAT
PRED = IRType.PRED

#: A type's stand-in inside a register's hash.  Registers hash ints
#: only (never a name, never an enum object), so the value is the same
#: in every process whatever ``PYTHONHASHSEED`` is, and a pickled
#: register carries a hash that is still right where it is loaded.
_TYPE_ORDINAL = {INT: 0, FLOAT: 1, PRED: 2}

#: Every memory word is 8 bytes; addresses in the IR are *word*
#: addresses, multiplied out to byte addresses only at the cache model.
WORD_BYTES = 8


@dataclass(frozen=True, slots=True)
class VReg:
    """A virtual register.

    ``uid`` is unique within a function.  ``name`` is a debugging hint
    (source variable name or temporary tag).

    Registers key the dicts and sets of every analysis, so the hash is
    computed once, at construction; equality still compares all three
    fields.
    """

    uid: int
    vtype: IRType
    name: str = ""
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.uid, _TYPE_ORDINAL[self.vtype])))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        prefix = {INT: "r", FLOAT: "f", PRED: "p"}[self.vtype]
        tag = f".{self.name}" if self.name else ""
        return f"%{prefix}{self.uid}{tag}"


@dataclass(frozen=True, slots=True)
class PReg:
    """A physical register, produced by register allocation.

    Hashed once at construction, like :class:`VReg`.
    """

    index: int
    vtype: IRType
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.index, _TYPE_ORDINAL[self.vtype])))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        prefix = {INT: "R", FLOAT: "F", PRED: "P"}[self.vtype]
        return f"{prefix}{self.index}"


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand."""

    value: float | int
    vtype: IRType = INT

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class SymRef:
    """A reference to a named memory object (global array or string).

    Resolved to a base word-address by the module's data layout.
    """

    symbol: str

    def __str__(self) -> str:
        return f"@{self.symbol}"


@dataclass(frozen=True, slots=True)
class StackSlot:
    """A function-local stack location (spill slot or local array).

    ``offset`` is a word offset within the frame; resolved against the
    frame base at simulation time.
    """

    offset: int
    name: str = ""

    def __str__(self) -> str:
        tag = f".{self.name}" if self.name else ""
        return f"stack[{self.offset}]{tag}"


Operand = VReg | PReg | Imm | SymRef | StackSlot


def is_register(operand: object) -> bool:
    return isinstance(operand, (VReg, PReg))
