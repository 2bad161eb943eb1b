"""Containers for scheduled (VLIW) code.

After list scheduling, each block becomes a sequence of *bundles*; each
bundle is the set of operations issued in one cycle, stored in
dependence-safe order (an operation never precedes a same-cycle
operation it depends on, so the simulator may execute a bundle
sequentially and still observe VLIW semantics).
"""

from __future__ import annotations

import hashlib

from repro.ir.function import Function, Module
from repro.ir.instr import Instr


class Bundle:
    """Operations issued together in one cycle."""

    def __init__(self, instrs: list[Instr] | None = None) -> None:
        self.instrs = [] if instrs is None else instrs

    def __iter__(self):
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)


class ScheduledBlock:
    """A scheduled basic block (or hyperblock)."""

    def __init__(self, label: str, bundles: list[Bundle]) -> None:
        self.label = label
        self.bundles = bundles

    @property
    def cycles(self) -> int:
        """Static schedule length."""
        return len(self.bundles)

    def successors(self) -> tuple[str, ...]:
        """The targets of the block's last operation, which is its
        terminator: the simulator's translation refuses any other block
        before it asks (``repro.ir.cfg`` reads this on scheduled code)."""
        return self.bundles[-1].instrs[-1].targets

    def flat_instructions(self) -> list[Instr]:
        return [instr for bundle in self.bundles for instr in bundle.instrs]


class ScheduledFunction:
    """All scheduled blocks of one function, in layout order.

    ``compiled`` is the simulator's: per executor class, the function's
    generated code and counted terminators, made the first time a run
    enters it (``repro.machine.sim``).  A scheduled function is not
    edited once made, and it belongs to one ``ScheduledModule``, whose
    global layout and function names the code bakes in."""

    def __init__(self, name: str, params: list, frame_words: int,
                 blocks: dict[str, ScheduledBlock], block_order: list[str],
                 compiled: dict | None = None) -> None:
        self.name = name
        self.params = params
        self.frame_words = frame_words
        self.blocks = blocks
        self.block_order = block_order
        self.compiled = {} if compiled is None else compiled

    @property
    def entry_label(self) -> str:
        return self.block_order[0]

    def static_cycles(self) -> int:
        return sum(self.blocks[label].cycles for label in self.block_order)

    def flat_instructions(self) -> list[Instr]:
        result = []
        for label in self.block_order:
            result.extend(self.blocks[label].flat_instructions())
        return result


class ScheduledModule:
    """The simulator's executable unit: scheduled functions plus the
    original module (for globals and layout)."""

    def __init__(self, module: Module,
                 functions: dict[str, ScheduledFunction]) -> None:
        self.module = module
        self.functions = functions

    def content_digest(self) -> str:
        """Stable content identity of the scheduled binary: everything
        simulation semantics can observe — bundle layout, operand text,
        branch targets, frame sizes, and the global data layout
        (insertion order decides base addresses, so it is part of the
        digest).  Process-local instruction uids are excluded, which
        makes recompiles — and distinct GP candidates that happen to
        reach identical schedules — collapse to the same digest."""
        digest = hashlib.sha256()
        for name in sorted(self.functions):
            func = self.functions[name]
            digest.update(
                f"func {name} frame={func.frame_words} "
                f"params={[str(p) for p in func.params]!r}\n".encode())
            for label in func.block_order:
                digest.update(f"{label}:\n".encode())
                for bundle in func.blocks[label].bundles:
                    digest.update(b"[")
                    for instr in bundle.instrs:
                        digest.update(str(instr).encode())
                        if instr.hazard:  # not in __str__, is semantic
                            digest.update(b"!h")
                        digest.update(b";")
                    digest.update(b"]\n")
        for gname, array in self.module.globals.items():
            digest.update(f"global {gname} size={array.size} "
                          f"type={array.elem_type.value} "
                          f"init={array.init!r}\n".encode())
        return digest.hexdigest()
