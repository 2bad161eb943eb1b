"""Cycle-level simulator for scheduled EPIC code.

Executes a :class:`~repro.machine.vliw.ScheduledModule`, modelling the
Table 3 machine:

* one cycle per issued bundle (a block's bundle count is charged when
  the block is entered — terminators are always in the final bundle);
* loads probe the cache hierarchy; latency beyond the scheduler's L1
  assumption stalls the pipeline (stall-on-miss in-order model);
* conditional branches consult the 2-bit predictor; a misprediction
  costs ``mispredict_penalty`` cycles;
* predicated (guarded) operations whose guard is false are squashed —
  they consume their issue slot but have no architectural effect;
* stores are buffered (1 cycle, no stall); prefetches charge nothing
  but occupy their memory slot and may pollute the caches.

Implementation note: for speed, each scheduled function is translated
once into one generated Python function whose registers are its own
locals (``r0``, ``r1``, ..., unpacked once on entry from the
zero-filled list holding the arguments), with immediates and global
addresses baked in, so an instruction reads and writes only frame
locals.  A callee's registers are its own frame's.  Its body is a
``while True`` over the block number ``at`` (the block's index in
layout order), one ``if at == k:`` arm per block in layout order:

* a block outside every innermost loop is an arm of that outer chain;
  going to a later arm falls through the arm tests in between, going
  back is a ``continue``;
* an innermost natural loop (``repro.ir.loops.find_loops``, a loop
  with no loop inside it) is one arm, at its header, holding an inner
  ``while True`` with one arm per loop block.  Inside it, jumps behave
  as above; leaving the loop is a ``break``, after which the outer
  chain continues.  A natural loop is entered only through its
  header, so every jump into a loop lands on its arm;
* ``RET`` is a ``return``.

The seven counters (cycles, bundles, dynamic and squashed ops, memory
and branch stall, L1 hits) are locals, added to the simulator in a
``finally`` and before each ``CALL``, because the callee charges the
simulator; ``run()`` then adds the L1 hits to L1's stats, whether the
run returns or faults.  The cycle budget is checked against the local
on every block entry.
So a run costs one Python call per scheduled-function invocation, not
one per block or loop it enters.  The functional interpreter's
:func:`~repro.ir.interp.apply_scalar_op` is the reference for what
each scalar operation computes; the integration suite asserts output
equality on every benchmark.

What the generated code does itself and what it calls:

* an integer ``ADD``/``SUB``/``MUL``/``NEG``/``AND``/``OR``/``XOR``/
  ``SHL``/``SHR``/``FTOI`` result is range-checked inline and passed
  to ``wrap_int`` only when it leaves 64 bits, so ``wrap_int`` stays
  the one definition of overflow;
* ``DIV`` and ``REM`` fault on a zero divisor and compute C's
  truncating quotient inline (floor division, one up when negative
  and inexact), then take the same range check;
* a ``LOAD`` or ``STORE`` looks its line up in L1 inline, on the
  :class:`~repro.machine.cache.CacheLevel`'s own sets (line number,
  set, membership, LRU refresh, the local hit count), and calls
  ``CacheHierarchy.load_miss`` / ``store_miss`` only when L1 misses:
  one call, whose frame walks L2 and L3 and fills what missed;
* a ``BR`` does the 2-bit saturating update inline, on its record
  ``[state, mispredictions, taken, not taken]`` in the function's list
  of counts, and charges the misprediction;
  :class:`~repro.machine.branch.TwoBitPredictor` is the reference this
  update, the profiling form's and the interpreter's are tested
  against, and ``SimResult.branch_accuracy`` sums the records;
* ``PREFETCH``, ``CALL``, ``FDIV``, the FTOI conversion and an L1 miss
  are calls.

``tests/machine/test_sim_inline_differential.py`` drives random traces
through the generated code, one event per call and inside one inner
loop, and through ``CacheHierarchy`` / ``TwoBitPredictor`` and
requires equal charges and equal final state (the branch traces in the
profiling form too), and random 64-bit operands through each integer
opcode and through ``apply_scalar_op`` and requires equal results and
faults.

The translation is where the IR's shape is checked, in both forms, the
first time a run enters each scheduled function (a binary is not
edited once scheduled, so later runs reuse the checked code): it
raises ``ValueError`` for a block that does not end in
its one unguarded terminator, a jump to a label the function lacks and
a call to a function the module lacks.  It reads each block's last
instruction before it finds the loops, then each instruction once, as
it makes the lines (refusing an earlier terminator by its opcode); a
register gets its local ``r<i>`` the first time a line uses it,
parameters first.  ``ValueError`` says the IR is
malformed (the interpreter's decode raises it too, for a uid that two
registers share); a :class:`SimError` would say the program faulted,
and the profiler would profile a malformed module as a faulting one.
The rest of well-formedness is the IR verifier's
(``repro.verify.ir_verifier``, run between stages under ``verify_ir``).

Per-instance state — the simulator, its memory, L1's sets and
geometry, the predictor's counters and the machine's latencies — is
*not* baked into the generated source; each function compiles to a
``__bind`` factory whose closure binds that state when a run first
calls the function, so one compiled function serves every machine
description.  The compiled code is kept twice.  A scheduled function
keeps its own, with its counted terminators, per executor class
(``ScheduledFunction.compiled``), so a second simulation of the same
binary (a held binary on its second dataset, a re-scored baseline)
runs no translation at all, only a cheap closure bind.  A function
without its own code is translated under a ``sim:codegen`` span (with
its ``compile`` and ``exec`` when the LRU below misses), so a trace
separates codegen from execution inside ``sim:run``.  And a
module-level LRU keyed by a SHA-256 of the generated source serves a
binary compiled again with equal content (a daemon compiling the same
program for each request): that one pays the translation that
computes the key, but no ``compile`` or ``exec``.  The bound functions
close over the simulator, so ``run()`` drops them when it returns: a
simulator is freed by reference counting, and a second ``run()`` binds
again.

The same translation has a profiling form, :class:`ProfilingRun`,
which ``repro.profile.collect_profile`` runs on the training input.
It translates an unscheduled module as it stands
(:func:`program_order`: blocks in ``block_order``, one bundle each, the
module's own ``Instr`` objects), so no scheduler runs and a block's
operations execute in the interpreter's order.  Its generated code
keeps no cache or cycle model; it counts each ``JMP`` taken as well as
the calls and ``BR`` records both forms keep, and charges IR steps
against ``max_steps`` as the interpreter does, a block's steps up to
each ``CALL`` at once.  ``tests/profile/test_generated_profile.py``
holds its profile to the one the interpreter's counters give, and
``tests/machine/test_branch_records.py`` both forms' records to the
interpreter's.

Fitness noise (Section 7.1): real-machine measurements are noisy; the
simulator can inject multiplicative Gaussian noise into the final
cycle count to reproduce the paper's point that GP tolerates noise
smaller than the attainable speedups.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from collections import OrderedDict

from repro import obs
from repro.ir.function import STACK_BASE, Module
from repro.ir.instr import TERMINATORS, Instr, Opcode, Rel
from repro.ir.interp import NONFINITE_FTOI, RunResult, wrap_int
from repro.ir.loops import find_loops
from repro.ir.values import Imm, PReg, StackSlot, SymRef, VReg
from repro.machine.branch import BranchStats, TwoBitPredictor
from repro.machine.cache import CacheHierarchy
from repro.machine.descr import MachineDescription, SimResult
from repro.machine.vliw import (
    Bundle,
    ScheduledBlock,
    ScheduledFunction,
    ScheduledModule,
)


class SimError(RuntimeError):
    """Runtime fault during timing simulation."""


_REL_PY = {
    Rel.EQ: "==", Rel.NE: "!=", Rel.LT: "<",
    Rel.LE: "<=", Rel.GT: ">", Rel.GE: ">=",
}

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

#: ``CacheLevel.probe`` on L1 for the word address in ``_a``, left
#: open for the caller's own hit lines and its ``else:`` (miss) arm.
_L1_LOOKUP = (
    "_n = _a >> SHIFT",
    "_s = SETS[_n & MASK]",
    "if _n in _s:",
    "    del _s[_n]",
    "    _s[_n] = None",
)

def _indent(lines, depth: int) -> list[str]:
    return [" " * depth + line for line in lines]


def _wrapped(dest: str, value: str = "_v") -> str:
    """Store the integer result in ``value`` to ``dest``, wrapped to 64
    bits: ``wrap_int`` (``wi``) runs only when the result is out of
    range, so it stays the one definition of overflow without costing
    a call per operation."""
    return (f"{dest} = {value} if {_INT_MIN} <= {value} <= {_INT_MAX} "
            f"else wi({value})")


def _truncating_quotient(numerator: str, divisor: str,
                         what: str) -> list[str]:
    """C's truncating quotient of ``_a`` by ``_b`` into ``_q``, after
    faulting on a zero divisor as ``apply_scalar_op`` does.  Floor
    division rounds a negative inexact quotient down; one up is
    truncation."""
    return [
        f"_a = {numerator}",
        f"_b = {divisor}",
        "if _b == 0:",
        f"    raise SimError('integer {what} by zero')",
        "_q = _a // _b",
        "if _q < 0 and _q * _b != _a:",
        "    _q += 1",
    ]


def _checked_ftoi(value: float) -> int:
    if not math.isfinite(value):
        raise SimError(NONFINITE_FTOI)
    return int(value)


def _checked_fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise SimError("float division by zero")
    return a / b


class _FunctionCode:
    """Instance-independent compilation artifact: the ``__bind``
    factory of one scheduled function, ready to close over a
    Simulator's state."""

    def __init__(self, param_indices: list[int], reg_count: int,
                 frame_words: int, bind: object) -> None:
        self.param_indices = param_indices
        self.reg_count = reg_count
        self.frame_words = frame_words
        self.bind = bind


#: Names and constants shared by all generated code; nothing here
#: depends on a Simulator instance, so exec'ing into this namespace
#: once per *scheduled function* (not per simulation) is sound.
_STATIC_NAMESPACE = {
    "wi": wrap_int,
    "ftoi": _checked_ftoi,
    "fdiv": _checked_fdiv,
    "SimError": SimError,
}

#: Compiled code of binaries compiled again with equal content, keyed
#: by the generated source's digest and the function's metadata (a
#: binary simulated before keeps its own code and skips this).
#: Bounded LRU: a long-running GP search compiles many distinct
#: candidate binaries, and code objects are not tiny.  Shared by every
#: thread in the process (the serving daemon runs simulations from a
#: worker pool), so all access goes through ``_CODEGEN_LOCK``; the
#: expensive exec/compile step itself runs outside the lock — a racing
#: double-translate is benign, last writer wins with an identical code
#: object.
_CODEGEN_CACHE: OrderedDict[tuple, _FunctionCode] = OrderedDict()
_CODEGEN_CACHE_CAPACITY = 512
_CODEGEN_LOCK = threading.Lock()
_codegen_hits = 0
_codegen_misses = 0


def codegen_cache_stats() -> dict[str, int]:
    with _CODEGEN_LOCK:
        return {
            "hits": _codegen_hits,
            "misses": _codegen_misses,
            "entries": len(_CODEGEN_CACHE),
        }


def clear_codegen_cache() -> None:
    """Empty the module-level LRU and zero its counters.  Code already
    attached to a live scheduled function stays with that binary: its
    next simulation is still a hit, without a lookup."""
    global _codegen_hits, _codegen_misses
    with _CODEGEN_LOCK:
        _CODEGEN_CACHE.clear()
        _codegen_hits = 0
        _codegen_misses = 0


class _Executor:
    """What both translation forms share: the memory and its global
    layout, frames and calls, the translation of each instruction, each
    function's control-flow counts and the codegen cache.  A form sets
    the class attributes below and provides

    * ``_form_lines(instr, src, dest)``: the lines of a ``LOAD``,
      ``STORE`` or ``PREFETCH``, ``src(i)`` being the i-th source's
      expression;
    * ``_block_lines(function, label, instrs, body)``: one block's
      entry charges, budget check and instructions, ``body`` holding
      each instruction's lines;
    * ``_bind(code, counts)``: the code's function bound for one run.

    A generated function is ``__function(R, fb)``: ``R`` is a fresh
    zero-filled list of its ``reg_count`` registers with the arguments
    in their slots, which it unpacks into the locals ``r0``, ``r1``,
    ... on entry and never reads again; ``fb`` is its frame's base
    address.  Every register an instruction names is one of those
    locals, so each call, a recursive one too, has registers of its
    own.

    Each function a run enters has one list of counts, ``C`` in its
    generated code: ``C[0]`` is its number of calls, then, per ``BR``
    and (in a form whose ``_COUNTED`` has it) ``JMP`` ending a block,
    in the order of ``function.blocks``, a ``JMP``'s ``[times taken]``
    or a ``BR``'s ``[2-bit state, mispredictions, taken, not taken]``.
    The counts outlive ``run()``, so a second run goes on counting.
    """

    #: The counters a generated function keeps in locals of the same
    #: names, as amounts not yet added to ``S``.
    _COUNTERS: tuple[str, ...]
    #: The line computing ``limit``, what the function may still add to
    #: its budgeted counter before the budget fault: run on entry and
    #: after each CALL.
    _LIMIT: str
    #: What every ``__bind`` factory closes over.
    _BIND_PARAMS: str
    #: The terminators whose outcomes ``C`` counts.
    _COUNTED: frozenset
    #: Lines a mispredicted ``BR`` runs besides its count.
    _MISPREDICTED: tuple[str, ...]
    #: Lines an operation whose guard is false runs instead.
    _SQUASHED: tuple[str, ...]

    def __init__(self, scheduled: ScheduledModule) -> None:
        self.scheduled = scheduled
        self.memory: dict[int, float | int] = {}
        self.outputs: list[float | int] = []
        self._sp = STACK_BASE
        self._layout = scheduled.module.layout()
        #: name -> (code, bound function), for one run() only: the
        #: bound functions close over the executor
        self._compiled: dict[str, tuple[_FunctionCode, object]] = {}
        #: name -> ``C``, in the order the executor first entered the
        #: functions, and name -> its counted terminators, ``(label,
        #: instr, first slot, width)``
        self._counts: dict[str, list[int]] = {}
        self._slots: dict[str, list[tuple]] = {}
        for name, array in scheduled.module.globals.items():
            base = self._layout[name]
            for index, value in enumerate(array.init):
                self.memory[base + index] = value

    # -- public API -----------------------------------------------------------
    def set_global(self, name: str, values: list[float | int],
                   offset: int = 0) -> None:
        array = self.scheduled.module.globals.get(name)
        if array is None:
            raise KeyError(f"no global named {name!r}")
        if offset + len(values) > array.size:
            raise ValueError(f"input overflows global {name}")
        base = self._layout[name]
        for index, value in enumerate(values):
            self.memory[base + offset + index] = value

    def read_global(self, name: str, count: int | None = None) -> list:
        """Final contents of a global array (unwritten words read 0),
        mirroring ``Interpreter.read_global`` for differential checks."""
        array = self.scheduled.module.globals[name]
        base = self._layout[name]
        length = array.size if count is None else count
        return [self.memory.get(base + i, 0) for i in range(length)]

    def control_counts(self) -> dict[str, tuple[int, list[tuple]]]:
        """``Interpreter.control_counts`` of the runs so far: per
        function entered, in that order, its number of calls and one
        ``(label, instr, counter)`` per counted terminator in the order
        of the function's blocks.  A ``JMP``'s counter is ``[times
        taken]``; a ``BR``'s is ``[2-bit state, mispredictions, taken,
        not taken]``.  They hold the counts up to a fault too."""
        return {
            name: (counts[0],
                   [(label, instr, counts[slot:slot + width])
                    for label, instr, slot, width in self._slots[name]])
            for name, counts in self._counts.items()
        }

    def _run(self, entry: str, args: tuple):
        if entry not in self.scheduled.functions:
            raise SimError(f"no scheduled function {entry!r}")
        try:
            return self._call(entry, tuple(args))
        finally:
            # drop the only references back to self, so the executor
            # is freed by reference counting
            self._compiled.clear()

    # -- execution ---------------------------------------------------------------
    def _call(self, name: str, args: tuple):
        compiled = self._compiled.get(name)
        if compiled is None:
            compiled = self._compile_function(self.scheduled.functions[name])
            self._compiled[name] = compiled
        code, run = compiled
        if len(args) != len(code.param_indices):
            raise SimError(f"{name} expects {len(code.param_indices)} args")
        registers: list = [0] * code.reg_count
        for index, arg in zip(code.param_indices, args):
            registers[index] = arg
        frame_base = self._sp
        self._sp += code.frame_words
        try:
            return run(registers, frame_base)
        finally:
            self._sp = frame_base

    def _compile_function(
        self, function: ScheduledFunction
    ) -> tuple[_FunctionCode, object]:
        code, slots = self._function_code(function)
        counts = self._counts.get(function.name)
        if counts is None:
            counts = self._counts[function.name] = [0]
            self._slots[function.name] = slots
            for _label, _instr, _slot, width in slots:
                counts += ([TwoBitPredictor.INIT, 0, 0, 0] if width == 4
                           else [0])
        return code, self._bind(code, counts)

    # -- translation ---------------------------------------------------------------
    def _flush(self) -> list[str]:
        """Add the counters to ``S``: when the function returns or
        faults, and before a ``CALL`` (the callee charges ``S``), after
        which :meth:`_restart` sets them to 0."""
        return [f"S.{name} += {name}" for name in self._COUNTERS]

    def _restart(self) -> str:
        return " = ".join(self._COUNTERS) + " = 0"

    def _operand_expr(self, operand, regs: dict) -> str:
        """``operand``'s expression.  A register is the local
        ``r<slot>`` of the generated function, its slot given the first
        time one is asked for; ``regs`` keys a ``VReg`` by uid and a
        ``PReg`` by (index, type), as ``build_dag`` does, so no register
        ``__hash__`` or ``__eq__`` runs."""
        kind = operand.__class__
        if kind is VReg or kind is PReg:
            key = (operand.uid if kind is VReg
                   else (operand.index, operand.vtype))
            slot = regs.get(key)
            if slot is None:
                slot = regs[key] = len(regs)
            return f"r{slot}"
        if kind is Imm:
            return repr(operand.value)
        if kind is SymRef:
            return repr(self._layout[operand.symbol])
        if kind is StackSlot:
            return f"(fb + {operand.offset})"
        raise SimError(f"cannot translate operand {operand!r}")

    def _instr_lines(self, instr: Instr, regs: dict, slot: int | None,
                     jump) -> list[str]:
        """Python source lines implementing one instruction.  ``slot``
        is the first of ``C``'s slots for the block's terminator, if it
        is counted; ``jump`` gives the lines that go to a label."""
        op = instr.op
        src = lambda i: self._operand_expr(instr.srcs[i], regs)
        dest = (self._operand_expr(instr.dest, regs)
                if instr.dest is not None else None)

        if op is Opcode.MOV or op is Opcode.LEA:
            return [f"{dest} = {src(0)}"]
        if op is Opcode.ADD:
            return [f"_v = {src(0)} + {src(1)}", _wrapped(dest)]
        if op is Opcode.SUB:
            return [f"_v = {src(0)} - {src(1)}", _wrapped(dest)]
        if op is Opcode.MUL:
            return [f"_v = {src(0)} * {src(1)}", _wrapped(dest)]
        if op is Opcode.DIV:
            return [*_truncating_quotient(src(0), src(1), "division"),
                    _wrapped(dest, "_q")]
        if op is Opcode.REM:
            return [*_truncating_quotient(src(0), src(1), "remainder"),
                    "_v = _a - _q * _b", _wrapped(dest)]
        if op is Opcode.NEG:
            return [f"_v = -{src(0)}", _wrapped(dest)]
        if op is Opcode.AND:
            return [f"_v = {src(0)} & {src(1)}", _wrapped(dest)]
        if op is Opcode.OR:
            return [f"_v = {src(0)} | {src(1)}", _wrapped(dest)]
        if op is Opcode.XOR:
            return [f"_v = {src(0)} ^ {src(1)}", _wrapped(dest)]
        if op is Opcode.SHL:
            return [f"_v = {src(0)} << ({src(1)} & 63)", _wrapped(dest)]
        if op is Opcode.SHR:
            return [f"_v = {src(0)} >> ({src(1)} & 63)", _wrapped(dest)]
        if op is Opcode.FADD:
            return [f"{dest} = {src(0)} + {src(1)}"]
        if op is Opcode.FSUB:
            return [f"{dest} = {src(0)} - {src(1)}"]
        if op is Opcode.FMUL:
            return [f"{dest} = {src(0)} * {src(1)}"]
        if op is Opcode.FDIV:
            return [f"{dest} = fdiv({src(0)}, {src(1)})"]
        if op is Opcode.FNEG:
            return [f"{dest} = -{src(0)}"]
        if op is Opcode.FSQRT:
            return [f"{dest} = abs({src(0)}) ** 0.5"]
        if op is Opcode.ITOF:
            return [f"{dest} = float({src(0)})"]
        if op is Opcode.FTOI:
            return [f"_v = ftoi({src(0)})", _wrapped(dest)]
        if op is Opcode.CMP:
            return [f"{dest} = 1 if {src(0)} {_REL_PY[instr.rel]} {src(1)} "
                    f"else 0"]
        if op is Opcode.CMPP:
            dest2 = self._operand_expr(instr.dest2, regs)
            return [
                f"_t = {src(0)} {_REL_PY[instr.rel]} {src(1)}",
                f"{dest} = _t",
                f"{dest2} = not _t",
            ]
        if op is Opcode.OUT:
            return [f"OUTS.append({src(0)})"]
        if op is Opcode.CALL:
            if instr.callee not in self.scheduled.functions:
                raise ValueError(f"call to unknown function {instr.callee!r}")
            arguments = ", ".join(src(i) for i in range(len(instr.srcs)))
            call = f"CALL({instr.callee!r}, ({arguments}{',' if instr.srcs else ''}))"
            if dest is not None:
                call = f"{dest} = {call}"
            # the callee charges S and checks the budget on it
            return [*self._flush(), self._restart(), call, self._LIMIT]
        if op is Opcode.RET:
            value = src(0) if instr.srcs else "None"
            return [f"return {value}"]
        if op is Opcode.BR:
            # TwoBitPredictor.update over C[k:k + 4], unrolled per
            # outcome: a state moves unless saturated, and only a state
            # that moves can have been on the wrong side.
            k = slot
            mispredicted = _indent((f"C[{k + 1}] += 1",
                                    *self._MISPREDICTED), 12)
            return [
                f"_c = C[{k}]",
                f"if {src(0)}:",
                f"    C[{k + 2}] += 1",
                "    if _c < 3:",
                f"        C[{k}] = _c + 1",
                "        if _c < 2:",
                *mispredicted,
                *_indent(jump(instr.targets[0]), 4),
                "else:",
                f"    C[{k + 3}] += 1",
                "    if _c > 0:",
                f"        C[{k}] = _c - 1",
                "        if _c > 1:",
                *mispredicted,
                *_indent(jump(instr.targets[1]), 4),
            ]
        if op is Opcode.JMP:
            lines = jump(instr.targets[0])
            return lines if slot is None else [f"C[{slot}] += 1", *lines]
        lines = self._form_lines(instr, src, dest)
        if lines is None:  # pragma: no cover
            raise SimError(f"unimplemented opcode {op}")
        return lines

    def _body(self, label: str, instrs: list[Instr], regs: dict,
              slot: int | None, jump) -> list[list[str]]:
        """Each instruction's lines, a guarded one's under its guard.
        A terminator before the block's last instruction is refused
        here, as the lines are made."""
        body = []
        last = len(instrs) - 1
        for position, instr in enumerate(instrs):
            if instr.op in TERMINATORS and position != last:
                raise ValueError(
                    f"block {label} must end in its one unguarded terminator")
            lines = self._instr_lines(instr, regs, slot, jump)
            if instr.guard is not None:
                lines = [f"if {self._operand_expr(instr.guard, regs)}:",
                         *_indent(lines, 4), *self._SQUASHED]
            body.append(lines)
        return body

    def _translate_function(
        self, function: ScheduledFunction
    ) -> tuple[str, list[int], int, list[tuple]]:
        """Generate instance-independent Python source for a scheduled
        function: one ``__bind`` factory whose closure parameters carry
        all per-run state, returning ``__function(R, fb)``, which
        unpacks ``R`` into its register locals and has one arm per
        block or innermost loop (the module docstring has the shape).
        Arms come in layout order, never in the set order of
        ``Loop.body``.  Returns the source, the parameter register
        indices, the register count and the counted terminators
        (``_counts``'s layout)."""
        # An arm ends where its block's terminator jumps or falls
        # through to a later arm, so that must be the last instruction
        # and run unconditionally (``_body`` refuses one before it).
        instrs_of: dict[str, list[Instr]] = {}
        slots: list[tuple] = []
        slot_of: dict[str, int] = {}
        first = 1  # C[0] counts the calls
        for label, block in function.blocks.items():
            instrs = instrs_of[label] = block.flat_instructions()
            last = instrs[-1] if instrs else None
            if (last is None or last.op not in TERMINATORS
                    or last.guard is not None):
                raise ValueError(
                    f"block {label} must end in its one unguarded terminator")
            for target in last.targets:
                if target not in function.blocks:
                    raise ValueError(
                        f"block {label} jumps to unknown block {target!r}")
            if last.op in self._COUNTED:
                width = 4 if last.op is Opcode.BR else 1
                slots.append((label, last, first, width))
                slot_of[label] = first
                first += width

        regs: dict = {}
        for param in function.params:
            self._operand_expr(param, regs)
        # the parameters took the first slots (keyed as _operand_expr)
        param_indices = [regs[param.uid if param.__class__ is VReg
                              else (param.index, param.vtype)]
                         for param in function.params]
        at_of = {label: index
                 for index, label in enumerate(function.block_order)}
        loop_of = {label: loop for loop in find_loops(function)
                   if not loop.children for label in loop.body}

        def arm(label: str, body, depth: int) -> list[str]:
            """The arm of block ``label`` at ``depth`` in the chain over
            ``body`` (the loop's blocks, or None for the outer chain);
            each line is indented once, here."""
            def jump(target):
                if body is not None and target not in body:
                    return [f"at = {at_of[target]}", "break"]
                if at_of[target] > at_of[label]:
                    return [f"at = {at_of[target]}"]
                return [f"at = {at_of[target]}", "continue"]

            instrs = instrs_of[label]
            lines = self._block_lines(
                function, label, instrs,
                self._body(label, instrs, regs, slot_of.get(label), jump))
            return [" " * depth + f"if at == {at_of[label]}:",
                    *_indent(lines, depth + 4)]

        arms = []
        for label in function.block_order:
            loop = loop_of.get(label)
            if loop is None:
                arms.extend(arm(label, None, 16))
            elif label == loop.header:
                arms.append(f"                if at == {at_of[label]}:")
                arms.append("                    while True:")
                for member in function.block_order:
                    if member in loop.body:
                        arms.extend(arm(member, loop.body, 24))
                arms.append("                    continue")
        # the arms gave every register its slot; each is a local,
        # unpacked once from the zero-filled list ``R``
        names = "".join([f"r{slot}, " for slot in range(len(regs))])
        unpack = [f"        {names}= R"] if regs else []
        lines = [
            f"def __bind({self._BIND_PARAMS}):",
            "    def __function(R, fb):",
            *unpack,
            "        C[0] += 1",
            f"        {self._restart()}",
            f"        {self._LIMIT}",
            f"        at = {at_of[function.entry_label]}",
            "        try:",
            "            while True:",
            *arms,
            "        finally:",
            *_indent(self._flush(), 12),
            "    return __function",
        ]
        return "\n".join(lines), param_indices, len(regs), slots

    def _function_code(
        self, function: ScheduledFunction
    ) -> tuple[_FunctionCode, list[tuple]]:
        """The function's compiled code and its translation's counted
        terminators.  A function keeps both, per executor class, from
        the first run that entered it, so a second run of the same
        binary translates and hashes nothing.  The first run looks the
        code up in the module-level LRU, keyed by the SHA-256 of the
        generated source, so an equal binary compiled again (a fresh
        object) skips ``compile`` and ``exec``.  Both kinds of answer
        count as a codegen hit.  The first run's translation, lookup
        and compile are a ``sim:codegen`` span, so ``sim:run``'s self
        time is execution."""
        global _codegen_hits, _codegen_misses
        compiled = function.compiled.get(self.__class__)
        if compiled is not None:
            with _CODEGEN_LOCK:
                _codegen_hits += 1
            obs.inc("sim.codegen_hits")
            return compiled
        with obs.span("sim:codegen", function=function.name):
            source, param_indices, reg_count, slots = \
                self._translate_function(function)
            key = (
                function.name,
                function.entry_label,
                function.frame_words,
                len(function.params),
                hashlib.sha256(source.encode()).hexdigest(),
            )
            with _CODEGEN_LOCK:
                code = _CODEGEN_CACHE.get(key)
                if code is not None:
                    _CODEGEN_CACHE.move_to_end(key)
                    _codegen_hits += 1
                else:
                    _codegen_misses += 1
            if code is not None:
                obs.inc("sim.codegen_hits")
            else:
                obs.inc("sim.codegen_misses")
                # Compile outside the lock: it is the expensive part,
                # and two threads racing on the same key produce
                # identical code objects (last writer wins benignly).
                local_ns: dict = {}
                exec(compile(source, f"<sim:{function.name}>", "exec"),
                     _STATIC_NAMESPACE, local_ns)
                code = _FunctionCode(
                    param_indices=param_indices,
                    reg_count=reg_count,
                    frame_words=function.frame_words,
                    bind=local_ns["__bind"],
                )
                with _CODEGEN_LOCK:
                    _CODEGEN_CACHE[key] = code
                    while len(_CODEGEN_CACHE) > _CODEGEN_CACHE_CAPACITY:
                        _CODEGEN_CACHE.popitem(last=False)
        compiled = function.compiled[self.__class__] = (code, slots)
        return compiled


class Simulator(_Executor):
    """Executes scheduled code with cycle accounting."""

    _COUNTERS = ("cycles", "bundles", "dynamic_ops", "squashed_ops",
                 "memory_stall", "branch_stall", "l1_hits")
    _LIMIT = "limit = S.max_cycles - S.cycles"
    #: The simulator, its memory and output list, L1's sets / index
    #: mask / word-to-line shift, the hierarchy's miss and prefetch
    #: methods, the function's counts, the call hook and the two
    #: machine latencies.  Geometry and latencies are bound, not baked,
    #: so generated source (and the codegen cache key) is the same on
    #: every machine.
    _BIND_PARAMS = ("S, MEM, OUTS, SETS, MASK, SHIFT, LOAD_MISS, "
                    "STORE_MISS, PREFETCH, C, CALL, L1, PEN")
    _COUNTED = frozenset({Opcode.BR})
    _MISPREDICTED = ("cycles += PEN", "branch_stall += PEN")
    _SQUASHED = ("else:", "    squashed_ops += 1", "    dynamic_ops -= 1")

    def __init__(
        self,
        scheduled: ScheduledModule,
        machine: MachineDescription,
        max_cycles: int = 100_000_000,
        noise_stddev: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        super().__init__(scheduled)
        self.machine = machine
        self.max_cycles = max_cycles
        self.noise_stddev = noise_stddev
        self._noise_rng = random.Random(noise_seed)

        self.caches = CacheHierarchy(machine)
        self.cycles = 0
        self.dynamic_ops = 0
        self.squashed_ops = 0
        self.bundles = 0
        self.memory_stall = 0
        self.branch_stall = 0
        #: L1 hits the generated code has counted and ``run()`` has not
        #: yet added to L1's stats
        self.l1_hits = 0

    # -- public API -----------------------------------------------------------
    def run(self, entry: str = "main",
            args: tuple[float | int, ...] = ()) -> SimResult:
        try:
            with obs.span("sim:run", entry=entry,
                          module=self.scheduled.module.name):
                value = self._run(entry, args)
        finally:
            self.caches.levels[0].stats.hits += self.l1_hits
            self.l1_hits = 0
        cycles = self.cycles
        if self.noise_stddev > 0.0:
            factor = max(0.5, self._noise_rng.gauss(1.0, self.noise_stddev))
            cycles = int(round(cycles * factor))
        branches = BranchStats()
        for name, slots in self._slots.items():
            counts = self._counts[name]
            for _label, _instr, k, _width in slots:
                branches.predictions += counts[k + 2] + counts[k + 3]
                branches.mispredictions += counts[k + 1]
        level1 = self.caches.levels[0].stats
        result = SimResult(
            cycles=cycles,
            return_value=value,
            outputs=list(self.outputs),
            dynamic_ops=self.dynamic_ops,
            squashed_ops=self.squashed_ops,
            bundles=self.bundles,
            memory_stall_cycles=self.memory_stall,
            branch_stall_cycles=self.branch_stall,
            load_count=self.caches.loads,
            l1_hit_rate=level1.hit_rate,
            branch_accuracy=branches.accuracy,
            prefetch_count=self.caches.prefetches,
        )
        registry = obs.metrics()
        if registry is not None:
            self._record_metrics(registry, result, level1, branches)
        return result

    def _record_metrics(self, registry, result: SimResult, level1,
                        branches: BranchStats) -> None:
        """Aggregate counters, recorded once per run() — never in the
        generated inner-loop code, so the fast path stays untouched."""
        registry.inc("sim.runs")
        registry.inc("sim.cycles", result.cycles)
        registry.inc("sim.dynamic_ops", result.dynamic_ops)
        registry.inc("sim.squashed_ops", result.squashed_ops)
        registry.inc("sim.bundles", result.bundles)
        registry.inc("sim.memory_stall_cycles", result.memory_stall_cycles)
        registry.inc("sim.branch_stall_cycles", result.branch_stall_cycles)
        registry.inc("sim.loads", result.load_count)
        registry.inc("sim.l1_hits", level1.hits)
        registry.inc("sim.l1_misses", level1.misses)
        registry.inc("sim.prefetches", result.prefetch_count)
        registry.inc("sim.branch_predictions", branches.predictions)
        registry.inc("sim.branch_mispredicts", branches.mispredictions)

    # -- translation ---------------------------------------------------------------
    def _form_lines(self, instr: Instr, src,
                    dest: str | None) -> list[str] | None:
        op = instr.op
        if op is Opcode.LOAD:
            return [
                f"_a = {src(0)}",
                *_L1_LOOKUP,
                "    l1_hits += 1",
                "else:",
                "    _l = LOAD_MISS(_a)",
                "    if _l > L1:",
                "        cycles += _l - L1",
                "        memory_stall += _l - L1",
                f"{dest} = MEM[_a] if _a in MEM else 0",
            ]
        if op is Opcode.STORE:
            return [
                f"_a = {src(0)}",
                *_L1_LOOKUP,
                "else:",
                "    STORE_MISS(_a)",
                f"MEM[_a] = {src(1)}",
            ]
        if op is Opcode.PREFETCH:
            return [f"PREFETCH({src(0)})"]
        return None

    def _block_lines(self, function: ScheduledFunction, label: str,
                     instrs: list[Instr], body: list) -> list[str]:
        cycles = function.blocks[label].cycles
        lines = [
            f"cycles += {cycles}",
            f"bundles += {cycles}",
            f"dynamic_ops += {len(instrs)}",
            "if cycles > limit:",
            "    raise SimError('cycle budget exceeded')",
        ]
        for instr_lines in body:
            lines.extend(instr_lines)
        return lines

    def _bind(self, code: _FunctionCode, counts: list[int]):
        level1 = self.caches.levels[0]
        return code.bind(
            S=self,
            MEM=self.memory,
            OUTS=self.outputs,
            SETS=level1.sets,
            MASK=level1.index_mask,
            SHIFT=level1.word_shift,
            LOAD_MISS=self.caches.load_miss,
            STORE_MISS=self.caches.store_miss,
            PREFETCH=self.caches.prefetch,
            C=counts,
            CALL=self._call,
            L1=self.machine.load_latency,
            PEN=self.machine.mispredict_penalty,
        )


def program_order(module: Module) -> ScheduledModule:
    """``module`` laid out as it stands: every block one bundle holding
    its instructions in order, blocks in ``block_order``, and the
    module's own ``Instr`` objects throughout."""
    return ScheduledModule(module, {
        name: ScheduledFunction(
            name, function.params, function.frame_words,
            {label: ScheduledBlock(label, [Bundle(list(block.instrs))])
             for label, block in function.blocks.items()},
            list(function.block_order))
        for name, function in module.functions.items()
    })


class ProfilingRun(_Executor):
    """The profiling form: executes an unscheduled module in
    :func:`program_order`, as the interpreter does, and counts its
    control flow instead of timing it.

    Every run counts each function's calls, each ``JMP`` taken and,
    per ``BR``, its taken and not-taken outcomes and the mispredictions
    of a 2-bit counter of its own (``TwoBitPredictor``'s update);
    :meth:`control_counts` returns them in the shape of
    ``Interpreter.control_counts``.  IR steps are charged against
    ``max_steps`` as the interpreter charges them, one per instruction
    reached; a block's are charged in segments, each ending at a
    ``CALL`` or the terminator, so a budget overrun faults before the
    same call or terminator as the interpreter's.  Faults raise
    :class:`SimError`.

    The counts equal the interpreter's on IR the verifier accepts
    (``repro.verify.ir_verifier``); the register file starts at zero,
    so only a read of a register no path defined could differ.
    """

    _COUNTERS = ("steps", "blocks")
    _LIMIT = "limit = S.max_steps - S.steps"
    #: The run, its memory and output list, the function's control-flow
    #: counts and the call hook.
    _BIND_PARAMS = "S, MEM, OUTS, C, CALL"
    _COUNTED = frozenset({Opcode.BR, Opcode.JMP})
    _MISPREDICTED = ()
    _SQUASHED = ()

    def __init__(self, module: Module, max_steps: int = 10_000_000) -> None:
        super().__init__(program_order(module))
        self.max_steps = max_steps
        self.steps = 0
        self.blocks = 0

    def run(self, entry: str = "main",
            args: tuple[float | int, ...] = ()) -> RunResult:
        value = self._run(entry, args)
        return RunResult(return_value=value, outputs=list(self.outputs),
                         steps=self.steps, blocks_executed=self.blocks)

    def _form_lines(self, instr: Instr, src,
                    dest: str | None) -> list[str] | None:
        op = instr.op
        if op is Opcode.LOAD:
            return [f"_a = {src(0)}",
                    f"{dest} = MEM[_a] if _a in MEM else 0"]
        if op is Opcode.STORE:
            return [f"MEM[{src(0)}] = {src(1)}"]
        if op is Opcode.PREFETCH:
            return ["pass"]
        return None

    def _block_lines(self, function: ScheduledFunction, label: str,
                     instrs: list[Instr], body: list) -> list[str]:
        # Steps are charged per segment: up to and including each CALL
        # (the callee charges S), then up to the terminator.
        overrun = f"step budget exceeded in {function.name}"
        lines = ["blocks += 1"]
        start = 0
        for end, instr in enumerate(instrs, 1):
            if instr.op is Opcode.CALL or end == len(instrs):
                lines += [f"steps += {end - start}",
                          "if steps > limit:",
                          f"    raise SimError({overrun!r})"]
                for instr_lines in body[start:end]:
                    lines.extend(instr_lines)
                start = end
        return lines

    def _bind(self, code: _FunctionCode, counts: list[int]):
        return code.bind(S=self, MEM=self.memory, OUTS=self.outputs,
                         C=counts, CALL=self._call)
