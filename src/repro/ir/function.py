"""Functions, modules, and the data layout.

A :class:`Module` owns global memory objects (arrays with optional
initial data) and functions.  The data layout assigns every global a
base *word* address in a flat address space; function frames (locals
and spill slots) live above the globals in a downward-growing stack.
Concrete addresses matter because the cache model hashes them into sets.
"""

from __future__ import annotations

import hashlib

from repro.ir.block import Block
from repro.ir.values import FLOAT, INT, IRType, VReg

#: Globals start here (leaving low addresses as an unmapped "null" zone).
GLOBAL_BASE = 1024

#: The stack begins here and grows upward (word addresses).
STACK_BASE = 1 << 22


class GlobalArray:
    """A module-level array (all benchmark data lives in these)."""

    def __init__(self, name: str, size: int, elem_type: IRType = INT,
                 init: tuple[float | int, ...] = ()) -> None:
        self.name = name
        self.size = size
        self.elem_type = elem_type
        self.init = init
        if size <= 0:
            raise ValueError(f"global {name} must have positive size")
        if len(init) > size:
            raise ValueError(f"initializer longer than array {name}")


class Function:
    """A single IR function: parameters, blocks, and frame bookkeeping."""

    def __init__(self, name: str, params: list[VReg],
                 return_type: IRType | None = None) -> None:
        self.name = name
        self.params = list(params)
        self.return_type = return_type
        self.blocks: dict[str, Block] = {}
        self.block_order: list[str] = []
        self._next_vreg = max((p.uid for p in params), default=-1) + 1
        self._next_label = 0
        self.frame_words = 0
        #: name -> StackSlot word offset, for function-local arrays.
        self.local_arrays: dict[str, tuple[int, int]] = {}

    # -- registers ------------------------------------------------------
    def new_vreg(self, vtype: IRType, name: str = "") -> VReg:
        reg = VReg(self._next_vreg, vtype, name)
        self._next_vreg += 1
        return reg

    # -- blocks ---------------------------------------------------------
    def new_block(self, hint: str = "bb") -> Block:
        label = f"{hint}{self._next_label}"
        self._next_label += 1
        block = Block(label)
        self.blocks[label] = block
        self.block_order.append(label)
        return block

    def add_block(self, block: Block) -> None:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label}")
        self.blocks[block.label] = block
        self.block_order.append(block.label)

    @property
    def entry(self) -> Block:
        return self.blocks[self.block_order[0]]

    def ordered_blocks(self) -> list[Block]:
        return [self.blocks[label] for label in self.block_order]

    def remove_block(self, label: str) -> None:
        del self.blocks[label]
        self.block_order.remove(label)

    # -- frame ----------------------------------------------------------
    def alloc_stack(self, words: int, name: str = "") -> int:
        """Reserve ``words`` in the frame; returns the word offset."""
        if words <= 0:
            raise ValueError("stack allocation must be positive")
        offset = self.frame_words
        self.frame_words += words
        if name:
            self.local_arrays[name] = (offset, words)
        return offset

    # -- traversal / cloning ---------------------------------------------
    def instructions(self):
        for block in self.ordered_blocks():
            yield from block.instrs

    def instruction_count(self) -> int:
        return sum(len(block.instrs) for block in self.ordered_blocks())

    def clone(self) -> "Function":
        twin = Function(self.name, list(self.params), self.return_type)
        twin._next_vreg = self._next_vreg
        twin._next_label = self._next_label
        twin.frame_words = self.frame_words
        twin.local_arrays = dict(self.local_arrays)
        for label in self.block_order:
            twin.add_block(self.blocks[label].copy())
        return twin

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        lines = [f"func @{self.name}({params}):"]
        lines.extend(str(self.blocks[label]) for label in self.block_order)
        return "\n".join(lines)


class Module:
    """A compilation unit: globals plus functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: dict[str, GlobalArray] = {}
        self.functions: dict[str, Function] = {}
        self._layout: dict[str, int] | None = None

    def add_global(self, array: GlobalArray) -> None:
        if array.name in self.globals:
            raise ValueError(f"duplicate global {array.name}")
        self.globals[array.name] = array
        self._layout = None

    def add_function(self, function: Function) -> None:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name}")
        self.functions[function.name] = function

    def layout(self) -> dict[str, int]:
        """Base word address of every global, assigned in insertion
        order starting at GLOBAL_BASE."""
        if self._layout is None:
            addresses: dict[str, int] = {}
            cursor = GLOBAL_BASE
            for name, array in self.globals.items():
                addresses[name] = cursor
                cursor += array.size
            self._layout = addresses
        return self._layout

    def clone(self) -> "Module":
        twin = Module(self.name)
        for array in self.globals.values():
            twin.add_global(array)
        for function in self.functions.values():
            twin.add_function(function.clone())
        return twin

    def content_digest(self) -> str:
        """Stable content identity of the module as the backend stages
        read it: instruction text and hazard markers, block order and
        labels, each function's signature, frame size, local arrays and
        next virtual register (spill temporaries are numbered from
        it), and the globals in insertion order (which decides base
        addresses).  Process-local instruction uids are excluded, so a
        :meth:`clone` — and two GP candidates whose stage produced the
        same IR — share a digest.  The IR-level counterpart of
        :meth:`repro.machine.vliw.ScheduledModule.content_digest`."""
        digest = hashlib.sha256()
        for gname, array in self.globals.items():
            digest.update(f"global {gname} size={array.size} "
                          f"type={array.elem_type.value} "
                          f"init={array.init!r}\n".encode())
        for name, func in self.functions.items():
            digest.update(
                f"func {name} params={[str(p) for p in func.params]!r} "
                f"returns={func.return_type!r} frame={func.frame_words} "
                f"locals={list(func.local_arrays.items())!r} "
                f"next_vreg={func._next_vreg}\n".encode())
            for label in func.block_order:
                # hazard is not in __str__, and is semantic
                text = "".join([f"{instr}!h;" if instr.hazard
                                else f"{instr};"
                                for instr in func.blocks[label].instrs])
                digest.update(f"{label}:{text}\n".encode())
        return digest.hexdigest()

    def __str__(self) -> str:
        parts = [f"module {self.name}"]
        for array in self.globals.values():
            parts.append(
                f"  global {array.name}[{array.size}] : {array.elem_type.value}"
            )
        parts.extend(str(func) for func in self.functions.values())
        return "\n".join(parts)
