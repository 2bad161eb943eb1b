"""Basic blocks.

A block holds a straight-line instruction sequence ending in exactly one
terminator (``br``, ``jmp`` or ``ret``).  Blocks are identified by label
within their function; branch targets are labels, so blocks can be
copied and functions cloned without cyclic references.
"""

from __future__ import annotations

from repro.ir.instr import TERMINATORS, Instr


class Block:
    def __init__(self, label: str, instrs: list[Instr] | None = None,
                 profile_count: int = 0) -> None:
        self.label = label
        self.instrs = [] if instrs is None else instrs
        #: Estimated/blessed execution count, populated by profiling.
        self.profile_count = profile_count

    @property
    def terminator(self) -> Instr:
        if not self.instrs or self.instrs[-1].op not in TERMINATORS:
            raise ValueError(f"block {self.label} lacks a terminator")
        return self.instrs[-1]

    @property
    def body(self) -> list[Instr]:
        """Instructions excluding the terminator."""
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            return self.instrs[:-1]
        return list(self.instrs)

    def successors(self) -> tuple[str, ...]:
        """The targets of the block's last instruction, which is its
        terminator: the verifier owns that shape (a ``RET`` has none)."""
        return self.instrs[-1].targets

    def append(self, instr: Instr) -> None:
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            raise ValueError(
                f"appending {instr} after terminator in block {self.label}"
            )
        self.instrs.append(instr)

    def is_closed(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].op in TERMINATORS

    def copy(self) -> "Block":
        clone = Block(self.label, [instr.copy() for instr in self.instrs])
        clone.profile_count = self.profile_count
        return clone

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instrs)
        return "\n".join(lines)
