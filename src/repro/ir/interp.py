"""Functional IR interpreter.

Executes a module directly over the CFG, independent of any machine
model.  Two jobs:

* **Reference semantics.**  The timing simulator executes scheduled,
  register-allocated code; tests assert that its observable output (the
  ``out`` stream and return value) matches this interpreter's, which
  validates every transformation in the pipeline end to end.
* **Profiling substrate.**  :mod:`repro.profile` runs the interpreter
  with callbacks to collect edge counts and branch histories, producing
  the ``exec_ratio`` and branch-predictability features of Table 4.

Integer semantics are 64-bit two's complement (wrapping); division
truncates toward zero, matching the MiniC frontend's documented rules.

Implementation note: an :class:`Interpreter` decodes each function the
first time it enters it (operands resolved to register keys, constants
and frame offsets) and executes the decoded rows; scalar opcodes still
go through :func:`apply_scalar_op`, the ALU the constant folder shares
(docs/VERIFY.md, "The reference side").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from repro.ir.function import Function, Module, STACK_BASE
from repro.ir.instr import Opcode, Rel
from repro.ir.values import (
    FLOAT,
    INT,
    Imm,
    PRED,
    StackSlot,
    SymRef,
    VReg,
)

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63


def wrap_int(value: int) -> int:
    """Wrap to signed 64-bit."""
    value &= _INT_MASK
    if value & _INT_SIGN:
        value -= 1 << 64
    return value


def int_div(numerator: int, denominator: int) -> int:
    """C-style truncating division."""
    quotient = abs(numerator) // abs(denominator)
    if (numerator < 0) != (denominator < 0):
        quotient = -quotient
    return quotient


def int_rem(numerator: int, denominator: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return numerator - int_div(numerator, denominator) * denominator


class InterpError(RuntimeError):
    """Raised on runtime faults: step overrun, division by zero, bad call."""


_REL_FUNCS = {
    Rel.EQ: operator.eq,
    Rel.NE: operator.ne,
    Rel.LT: operator.lt,
    Rel.LE: operator.le,
    Rel.GT: operator.gt,
    Rel.GE: operator.ge,
}


def apply_scalar_op(op: Opcode, rel: Rel | None, values: tuple):
    """Evaluate a pure scalar opcode on already-fetched source values.

    Shared between the functional interpreter and the timing simulator
    so the two engines cannot drift semantically.  CMPP returns a
    ``(truth, complement)`` pair; every other opcode returns one value.
    Raises :class:`InterpError` on division by zero.
    """
    if op is Opcode.MOV:
        return values[0]
    if op is Opcode.ADD:
        return wrap_int(values[0] + values[1])
    if op is Opcode.SUB:
        return wrap_int(values[0] - values[1])
    if op is Opcode.MUL:
        return wrap_int(values[0] * values[1])
    if op is Opcode.DIV:
        if values[1] == 0:
            raise InterpError("integer division by zero")
        return wrap_int(int_div(values[0], values[1]))
    if op is Opcode.REM:
        if values[1] == 0:
            raise InterpError("integer remainder by zero")
        return wrap_int(int_rem(values[0], values[1]))
    if op is Opcode.NEG:
        return wrap_int(-values[0])
    if op is Opcode.AND:
        return wrap_int(values[0] & values[1])
    if op is Opcode.OR:
        return wrap_int(values[0] | values[1])
    if op is Opcode.XOR:
        return wrap_int(values[0] ^ values[1])
    if op is Opcode.SHL:
        return wrap_int(values[0] << (values[1] & 63))
    if op is Opcode.SHR:
        return wrap_int(values[0] >> (values[1] & 63))
    if op is Opcode.FADD:
        return values[0] + values[1]
    if op is Opcode.FSUB:
        return values[0] - values[1]
    if op is Opcode.FMUL:
        return values[0] * values[1]
    if op is Opcode.FDIV:
        if values[1] == 0.0:
            raise InterpError("float division by zero")
        return values[0] / values[1]
    if op is Opcode.FNEG:
        return -values[0]
    if op is Opcode.FSQRT:
        return abs(values[0]) ** 0.5
    if op is Opcode.ITOF:
        return float(values[0])
    if op is Opcode.FTOI:
        return wrap_int(int(values[0]))
    if op is Opcode.CMP:
        return 1 if _REL_FUNCS[rel](values[0], values[1]) else 0
    if op is Opcode.CMPP:
        truth = _REL_FUNCS[rel](values[0], values[1])
        return truth, not truth
    raise InterpError(f"not a scalar opcode: {op}")


#: Opcodes handled by :func:`apply_scalar_op`.
SCALAR_OPS = frozenset({
    Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.NEG, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
    Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI, Opcode.CMP, Opcode.CMPP,
})


#: Row kinds of a decoded instruction (:meth:`Interpreter._decode`).
#: The terminators sort last: ``kind >= _BR`` is ``is_terminator``.
(_SCALAR, _CMPP, _LEA, _LOAD, _STORE, _PREFETCH, _OUT, _CALL,
 _BR, _JMP, _RET) = range(11)

#: Kinds of the opcodes that read their first source, if they have one.
_KIND_BY_OPCODE = {
    Opcode.LEA: _LEA, Opcode.LOAD: _LOAD, Opcode.PREFETCH: _PREFETCH,
    Opcode.OUT: _OUT, Opcode.BR: _BR, Opcode.RET: _RET,
}

#: Operand modes of a decoded source.
_REG, _CONST, _FRAME, _FAULT = range(4)


@dataclass
class RunResult:
    """Observable outcome of one program execution."""

    return_value: float | int | None
    outputs: list[float | int]
    steps: int
    blocks_executed: int

    def output_signature(self) -> tuple:
        """Hashable digest used by equivalence tests."""
        return (self.return_value, tuple(self.outputs))


@dataclass
class Interpreter:
    """Executes a module.

    Parameters
    ----------
    module:
        The module to execute (validated by the caller).
    max_steps:
        Dynamic instruction budget; exceeded => :class:`InterpError`
        (guards against accidental infinite loops in generated code).
    on_edge:
        Optional callback ``(function_name, from_label, to_label)``
        invoked for every control-flow edge taken.
    on_branch:
        Optional callback ``(function_name, instr_uid, taken)`` invoked
        for every conditional branch executed.
    """

    module: Module
    max_steps: int = 10_000_000
    on_edge: Callable[[str, str, str], None] | None = None
    on_branch: Callable[[str, int, bool], None] | None = None

    memory: dict[int, float | int] = field(init=False, default_factory=dict)
    outputs: list[float | int] = field(init=False, default_factory=list)
    steps: int = field(init=False, default=0)
    blocks_executed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._layout = self.module.layout()
        self._sp = STACK_BASE
        #: function name -> its decode.  Per instance, and an instance
        #: serves one run, so no run sees a module through the decode
        #: of an earlier state of it.
        self._decoded: dict[str, tuple] = {}
        for name, array in self.module.globals.items():
            base = self._layout[name]
            for index, value in enumerate(array.init):
                self.memory[base + index] = value

    # -- public API -------------------------------------------------------
    def set_global(self, name: str, values: list[float | int],
                   offset: int = 0) -> None:
        """Write input data into a global array before execution."""
        array = self.module.globals.get(name)
        if array is None:
            raise KeyError(f"no global named {name!r}")
        if offset + len(values) > array.size:
            raise ValueError(
                f"{len(values)} values at offset {offset} overflow "
                f"{name}[{array.size}]"
            )
        base = self._layout[name]
        for index, value in enumerate(values):
            self.memory[base + offset + index] = value

    def read_global(self, name: str, count: int | None = None) -> list:
        array = self.module.globals[name]
        base = self._layout[name]
        length = array.size if count is None else count
        return [self.memory.get(base + i, 0) for i in range(length)]

    def run(self, entry: str = "main",
            args: tuple[float | int, ...] = ()) -> RunResult:
        """Execute ``entry`` and return the observable results."""
        function = self.module.functions.get(entry)
        if function is None:
            raise InterpError(f"no function named {entry!r}")
        value = self._call(function, tuple(args))
        return RunResult(
            return_value=value,
            outputs=list(self.outputs),
            steps=self.steps,
            blocks_executed=self.blocks_executed,
        )

    # -- execution core -----------------------------------------------------
    def _decode(self, function: Function):
        """Decode ``function`` for :meth:`_call`: per block, one row
        ``(kind, instr, guard, dest, dest2, operands)`` per instruction.

        ``guard``/``dest``/``dest2`` are register-file keys and
        ``operands`` holds ``(mode, payload)`` for exactly the sources
        the opcode reads, in the order it reads them: a register's
        key, a constant (immediates and resolved symbol addresses), a
        frame offset, or the fault that evaluating the operand raises.
        The register file is keyed by ``uid``, so a function in which
        two distinct virtual registers share one is refused rather
        than run with the two merged.  Returns the rows by block label
        and the registers by uid (for fault messages).
        """
        vregs: dict[int, VReg] = {}

        def key(reg):
            if not isinstance(reg, VReg):
                # no destination or guard, or a physical register
                # (writable, but no operand can read it back)
                return reg
            known = vregs.setdefault(reg.uid, reg)
            if known != reg:
                raise ValueError(
                    f"{function.name}: registers {known} and {reg} "
                    f"share uid {reg.uid}"
                )
            return reg.uid

        def operand(src):
            if isinstance(src, VReg):
                return _REG, key(src)
            if isinstance(src, Imm):
                return _CONST, src.value
            if isinstance(src, SymRef):
                if src.symbol not in self._layout:
                    return _FAULT, KeyError(src.symbol)
                return _CONST, self._layout[src.symbol]
            if isinstance(src, StackSlot):
                return _FRAME, src.offset
            return _FAULT, InterpError(f"cannot evaluate operand {src!r}")

        for param in function.params:
            key(param)
        blocks = {}
        for label, block in function.blocks.items():
            rows = blocks[label] = []
            for instr in block.instrs:
                op, read = instr.op, instr.srcs[:1]
                if op in SCALAR_OPS:
                    kind = _CMPP if op is Opcode.CMPP else _SCALAR
                    read = instr.srcs
                elif op is Opcode.STORE:
                    kind = _STORE
                    read = instr.srcs[1::-1]  # the value, then the address
                elif op is Opcode.CALL:
                    kind = _CALL
                    # an unknown callee faults before any argument is read
                    known = instr.callee in self.module.functions
                    read = instr.srcs if known else ()
                elif op is Opcode.JMP:
                    kind, read = _JMP, ()
                else:
                    kind = _KIND_BY_OPCODE[op]
                rows.append((
                    kind, instr, key(instr.guard), key(instr.dest),
                    key(instr.dest2), tuple(operand(src) for src in read),
                ))
        return blocks, vregs

    def _call(self, function: Function,
              args: tuple[float | int, ...]) -> float | int | None:
        if len(args) != len(function.params):
            raise InterpError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        decoded = self._decoded.get(function.name)
        if decoded is None:
            decoded = self._decoded[function.name] = self._decode(function)
        blocks, vregs = decoded
        regs: dict[int, float | int | bool] = {}
        for param, arg in zip(function.params, args):
            regs[param.uid] = arg
        frame_base = self._sp
        self._sp += function.frame_words
        name = function.name
        memory = self.memory
        max_steps = self.max_steps

        try:
            label = function.block_order[0]
            while True:
                rows = blocks[label]
                self.blocks_executed += 1
                next_label: str | None = None
                for kind, instr, guard, dest, dest2, operands in rows:
                    self.steps += 1
                    if self.steps > max_steps:
                        raise InterpError(f"step budget exceeded in {name}")
                    if guard is not None and not regs.get(guard, False):
                        if kind >= _BR:
                            raise InterpError(
                                "guarded terminator reached false")
                        continue
                    values = ()
                    for mode, payload in operands:
                        if mode == _REG:
                            try:
                                values += (regs[payload],)
                            except KeyError:
                                raise InterpError(
                                    "read of undefined register "
                                    f"{vregs[payload]}"
                                )
                        elif mode == _CONST:
                            values += (payload,)
                        elif mode == _FRAME:
                            values += (frame_base + payload,)
                        else:
                            raise payload
                    if kind == _SCALAR:
                        regs[dest] = apply_scalar_op(
                            instr.op, instr.rel, values)
                    elif kind == _LOAD:
                        regs[dest] = memory.get(values[0], 0)
                    elif kind == _BR:
                        taken = bool(values[0])
                        if self.on_branch is not None:
                            self.on_branch(name, instr.uid, taken)
                        next_label = instr.targets[0 if taken else 1]
                        break
                    elif kind == _CMPP:
                        regs[dest], regs[dest2] = apply_scalar_op(
                            instr.op, instr.rel, values)
                    elif kind == _STORE:
                        memory[values[1]] = values[0]
                    elif kind == _JMP:
                        next_label = instr.targets[0]
                        break
                    elif kind == _LEA:
                        regs[dest] = values[0]
                    elif kind == _OUT:
                        self.outputs.append(values[0])
                    elif kind == _CALL:
                        callee = self.module.functions.get(instr.callee)
                        if callee is None:
                            raise InterpError(
                                f"call to unknown function {instr.callee}")
                        result = self._call(callee, values)
                        if dest is not None:
                            regs[dest] = result
                    elif kind == _RET:
                        return values[0] if values else None
                    # _PREFETCH: address computed; no architectural effect
                if next_label is None:
                    raise InterpError(
                        f"block {label} fell through without terminator"
                    )
                if self.on_edge is not None:
                    self.on_edge(name, label, next_label)
                label = next_label
        finally:
            self._sp = frame_base
