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

Implementation note: for speed, each scheduled block is translated
once into a generated Python function over a dense register file
(``R[i]``), with immediates and global addresses baked in.  Generated
code calls the same arithmetic helpers as the functional interpreter
(``wrap_int`` / ``int_div`` / ``int_rem``), so the two engines cannot
diverge semantically; the integration suite asserts output equality on
every benchmark.

What the generated code does itself and what it calls:

* a ``LOAD`` or ``STORE`` looks its line up in L1 inline, on the
  :class:`~repro.machine.cache.CacheLevel`'s own sets (line number,
  set, membership, LRU refresh, hit counter), and calls
  ``CacheHierarchy.load_miss`` / ``store_miss`` only when L1 misses;
* a ``BR`` does the 2-bit saturating update and charges the
  misprediction inline, over ``Simulator.branch_counters`` and
  ``Simulator.branch_stats`` —
  :class:`~repro.machine.branch.TwoBitPredictor` is the profiler's
  predictor and the reference this inline one is tested against;
* ``PREFETCH``, ``CALL``, division and an L1 miss are calls.

``tests/machine/test_sim_inline_differential.py`` drives random traces
through the generated code and through ``CacheHierarchy`` /
``TwoBitPredictor`` and requires equal charges and equal final state.

The compiled code objects are cached at module level, keyed by the
identity of the scheduled function (a content digest of its generated
source plus layout-independent metadata).  Per-instance state — the
simulator, its memory, L1's sets and geometry, the predictor's counters
and the machine's latencies — is *not* baked into the generated source;
each block compiles to a ``__bind`` factory whose closure binds that
state at Simulator-construction time, so one cached binary serves every
machine description.  Repeated simulations of the same binary (every
baseline run, every fitness-memo miss repeated across worker
processes) therefore skip translation + ``compile`` entirely and only
pay a cheap closure bind.

Fitness noise (Section 7.1): real-machine measurements are noisy; the
simulator can inject multiplicative Gaussian noise into the final
cycle count to reproduce the paper's point that GP tolerates noise
smaller than the attainable speedups.
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.ir.function import STACK_BASE
from repro.ir.instr import Instr, Opcode, Rel
from repro.ir.interp import int_div, int_rem, wrap_int
from repro.ir.values import Imm, PReg, StackSlot, SymRef, VReg
from repro.machine.branch import BranchStats, TwoBitPredictor
from repro.machine.cache import CacheHierarchy
from repro.machine.descr import MachineDescription
from repro.machine.vliw import ScheduledFunction, ScheduledModule


@dataclass
class SimResult:
    """Timing and observable outcome of one simulated execution."""

    cycles: int
    return_value: float | int | None
    outputs: list[float | int]
    dynamic_ops: int = 0
    squashed_ops: int = 0
    bundles: int = 0
    memory_stall_cycles: int = 0
    branch_stall_cycles: int = 0
    load_count: int = 0
    l1_hit_rate: float = 0.0
    branch_accuracy: float = 0.0
    prefetch_count: int = 0

    def output_signature(self) -> tuple:
        return (self.return_value, tuple(self.outputs))


class SimError(RuntimeError):
    """Runtime fault during timing simulation."""


_REL_PY = {
    Rel.EQ: "==", Rel.NE: "!=", Rel.LT: "<",
    Rel.LE: "<=", Rel.GT: ">", Rel.GE: ">=",
}

#: marker distinguishing a return from a jump in generated block code
_RET = ("\x00ret",)

#: What every ``__bind`` factory closes over: the simulator, its
#: memory and output list, L1's sets / index mask / word-to-line shift
#: / stats, the hierarchy's miss and prefetch methods, the predictor's
#: counters and stats, the call hook and the two machine latencies.
#: Geometry and latencies are bound, not baked, so generated source
#: (and the codegen cache key) is the same on every machine.
_BIND_PARAMS = ("S, MEM, OUTS, SETS, MASK, SHIFT, STATS, LOAD_MISS, "
                "STORE_MISS, PREFETCH, COUNTERS, BRANCHES, CALL, L1, PEN")

#: ``CacheLevel.probe`` on L1 for the word address in ``_a``, left
#: open for the caller's own hit lines and its ``else:`` (miss) arm.
_L1_LOOKUP = (
    "_n = _a >> SHIFT",
    "_s = SETS[_n & MASK]",
    "if _n in _s:",
    "    del _s[_n]",
    "    _s[_n] = None",
)

_MISPREDICTED = (
    "BRANCHES.mispredictions += 1",
    "S.cycles += PEN",
    "S.branch_stall += PEN",
)


def _indent(lines, depth: int) -> list[str]:
    return [" " * depth + line for line in lines]


def _checked_idiv(a: int, b: int) -> int:
    if b == 0:
        raise SimError("integer division by zero")
    return wrap_int(int_div(a, b))


def _checked_irem(a: int, b: int) -> int:
    if b == 0:
        raise SimError("integer remainder by zero")
    return wrap_int(int_rem(a, b))


def _checked_fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise SimError("float division by zero")
    return a / b


@dataclass
class _CompiledFunction:
    name: str
    param_indices: list[int]
    reg_count: int
    frame_words: int
    entry: str
    blocks: dict[str, object]  # label -> generated callable


@dataclass
class _FunctionCode:
    """Instance-independent compilation artifact: one ``__bind``
    factory per block, ready to close over a Simulator's state."""

    param_indices: list[int]
    reg_count: int
    binders: dict[str, object]  # label -> bind factory


#: Names and constants shared by all generated code; nothing here
#: depends on a Simulator instance, so exec'ing into this namespace
#: once per *scheduled function* (not per simulation) is sound.
_STATIC_NAMESPACE = {
    "wi": wrap_int,
    "idiv": _checked_idiv,
    "irem": _checked_irem,
    "fdiv": _checked_fdiv,
    "RET": _RET[0],
    "SimError": SimError,
}

#: Cached code, keyed by scheduled-function identity (source digest +
#: metadata).  Bounded LRU: a long-running GP search compiles many
#: distinct candidate binaries, and code objects are not tiny.
#: Shared by every thread in the process (the serving daemon runs
#: simulations from a worker pool), so all access goes through
#: ``_CODEGEN_LOCK``; the expensive exec/compile step itself runs
#: outside the lock — a racing double-translate is benign, last
#: writer wins with an identical code object.
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
    global _codegen_hits, _codegen_misses
    with _CODEGEN_LOCK:
        _CODEGEN_CACHE.clear()
        _codegen_hits = 0
        _codegen_misses = 0


class Simulator:
    """Executes scheduled code with cycle accounting."""

    def __init__(
        self,
        scheduled: ScheduledModule,
        machine: MachineDescription,
        max_cycles: int = 100_000_000,
        noise_stddev: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        self.scheduled = scheduled
        self.machine = machine
        self.max_cycles = max_cycles
        self.noise_stddev = noise_stddev
        self._noise_rng = random.Random(noise_seed)

        self.caches = CacheHierarchy(machine)
        #: the 2-bit predictor's state, updated by the generated code
        self.branch_counters: dict[str, int] = {}
        self.branch_stats = BranchStats()
        self.memory: dict[int, float | int] = {}
        self.outputs: list[float | int] = []
        self.cycles = 0
        self.dynamic_ops = 0
        self.squashed_ops = 0
        self.bundles = 0
        self.memory_stall = 0
        self.branch_stall = 0
        self._sp = STACK_BASE
        self._layout = scheduled.module.layout()
        self._compiled: dict[str, _CompiledFunction] = {}
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

    def run(self, entry: str = "main",
            args: tuple[float | int, ...] = ()) -> SimResult:
        if entry not in self.scheduled.functions:
            raise SimError(f"no scheduled function {entry!r}")
        with obs.span("sim:run", entry=entry,
                      module=self.scheduled.module.name):
            value = self._call(entry, tuple(args))
        cycles = self.cycles
        if self.noise_stddev > 0.0:
            factor = max(0.5, self._noise_rng.gauss(1.0, self.noise_stddev))
            cycles = int(round(cycles * factor))
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
            branch_accuracy=self.branch_stats.accuracy,
            prefetch_count=self.caches.prefetches,
        )
        registry = obs.metrics()
        if registry is not None:
            self._record_metrics(registry, result, level1)
        return result

    def _record_metrics(self, registry, result: SimResult, level1) -> None:
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
        registry.inc("sim.branch_predictions", self.branch_stats.predictions)
        registry.inc("sim.branch_mispredicts",
                     self.branch_stats.mispredictions)

    # -- execution ---------------------------------------------------------------
    def _call(self, name: str, args: tuple):
        compiled = self._compiled.get(name)
        if compiled is None:
            compiled = self._compile_function(self.scheduled.functions[name])
            self._compiled[name] = compiled
        if len(args) != len(compiled.param_indices):
            raise SimError(f"{name} expects {len(compiled.param_indices)} args")
        registers: list = [0] * compiled.reg_count
        for index, arg in zip(compiled.param_indices, args):
            registers[index] = arg
        frame_base = self._sp
        self._sp += compiled.frame_words
        try:
            label = compiled.entry
            blocks = compiled.blocks
            while True:
                outcome = blocks[label](registers, frame_base)
                if type(outcome) is str:
                    label = outcome
                    continue
                return outcome[1]
        finally:
            self._sp = frame_base

    # -- translation ---------------------------------------------------------------
    def _operand_expr(self, operand, reg_index: dict) -> str:
        if isinstance(operand, (VReg, PReg)):
            return f"R[{reg_index[operand]}]"
        if isinstance(operand, Imm):
            return repr(operand.value)
        if isinstance(operand, SymRef):
            return repr(self._layout[operand.symbol])
        if isinstance(operand, StackSlot):
            return f"(fb + {operand.offset})"
        raise SimError(f"cannot translate operand {operand!r}")

    def _instr_lines(self, instr: Instr, reg_index: dict,
                     branch_keys: dict) -> list[str]:
        """Python source lines implementing one instruction."""
        op = instr.op
        src = lambda i: self._operand_expr(instr.srcs[i], reg_index)
        dest = (f"R[{reg_index[instr.dest]}]"
                if instr.dest is not None else None)

        if op is Opcode.MOV or op is Opcode.LEA:
            return [f"{dest} = {src(0)}"]
        if op is Opcode.ADD:
            return [f"{dest} = wi({src(0)} + {src(1)})"]
        if op is Opcode.SUB:
            return [f"{dest} = wi({src(0)} - {src(1)})"]
        if op is Opcode.MUL:
            return [f"{dest} = wi({src(0)} * {src(1)})"]
        if op is Opcode.DIV:
            return [f"{dest} = idiv({src(0)}, {src(1)})"]
        if op is Opcode.REM:
            return [f"{dest} = irem({src(0)}, {src(1)})"]
        if op is Opcode.NEG:
            return [f"{dest} = wi(-{src(0)})"]
        if op is Opcode.AND:
            return [f"{dest} = wi({src(0)} & {src(1)})"]
        if op is Opcode.OR:
            return [f"{dest} = wi({src(0)} | {src(1)})"]
        if op is Opcode.XOR:
            return [f"{dest} = wi({src(0)} ^ {src(1)})"]
        if op is Opcode.SHL:
            return [f"{dest} = wi({src(0)} << ({src(1)} & 63))"]
        if op is Opcode.SHR:
            return [f"{dest} = wi({src(0)} >> ({src(1)} & 63))"]
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
            return [f"{dest} = wi(int({src(0)}))"]
        if op is Opcode.CMP:
            return [f"{dest} = 1 if {src(0)} {_REL_PY[instr.rel]} {src(1)} "
                    f"else 0"]
        if op is Opcode.CMPP:
            dest2 = f"R[{reg_index[instr.dest2]}]"
            return [
                f"_t = {src(0)} {_REL_PY[instr.rel]} {src(1)}",
                f"{dest} = _t",
                f"{dest2} = not _t",
            ]
        if op is Opcode.LOAD:
            return [
                f"_a = {src(0)}",
                *_L1_LOOKUP,
                "    STATS.hits += 1",
                "else:",
                "    _l = LOAD_MISS(_a)",
                "    if _l > L1:",
                "        S.cycles += _l - L1",
                "        S.memory_stall += _l - L1",
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
        if op is Opcode.OUT:
            return [f"OUTS.append({src(0)})"]
        if op is Opcode.CALL:
            arguments = ", ".join(src(i) for i in range(len(instr.srcs)))
            call = f"CALL({instr.callee!r}, ({arguments}{',' if instr.srcs else ''}))"
            if dest is not None:
                return [f"{dest} = {call}"]
            return [call]
        if op is Opcode.BR:
            # TwoBitPredictor.update, unrolled per outcome: a counter
            # moves unless saturated, and only a counter that moves
            # can have been on the wrong side.
            key = repr(branch_keys[instr.uid])
            return [
                "BRANCHES.predictions += 1",
                f"_c = COUNTERS[{key}] if {key} in COUNTERS "
                f"else {TwoBitPredictor.INIT}",
                f"if {src(0)}:",
                "    if _c < 3:",
                f"        COUNTERS[{key}] = _c + 1",
                "        if _c < 2:",
                *_indent(_MISPREDICTED, 12),
                f"    return {instr.targets[0]!r}",
                "if _c > 0:",
                f"    COUNTERS[{key}] = _c - 1",
                "    if _c > 1:",
                *_indent(_MISPREDICTED, 8),
                f"return {instr.targets[1]!r}",
            ]
        if op is Opcode.JMP:
            return [f"return {instr.targets[0]!r}"]
        if op is Opcode.RET:
            value = src(0) if instr.srcs else "None"
            return [f"return (RET, {value})"]
        raise SimError(f"unimplemented opcode {op}")  # pragma: no cover

    def _translate_function(
        self, function: ScheduledFunction
    ) -> tuple[str, list[int], int, dict[str, str]]:
        """Generate instance-independent Python source for a scheduled
        function: one ``__bind`` factory per block whose closure
        parameters carry all per-simulation state.  Returns the source
        blob, the parameter register indices, the register count, and
        the label -> factory-name map."""
        reg_index: dict = {}

        def index_of(reg) -> int:
            slot = reg_index.get(reg)
            if slot is None:
                slot = len(reg_index)
                reg_index[reg] = slot
            return slot

        for param in function.params:
            index_of(param)
        # Deterministic branch-predictor keys: instruction uids are a
        # process-global counter, so baking them into generated code
        # would make recompiles of the same binary cache-miss.  Keys
        # need only be unique per module (function names are), stable
        # across recompiles, and injective per branch.
        branch_keys: dict = {}
        for instr in function.flat_instructions():
            for reg in instr.reads():
                index_of(reg)
            for reg in instr.writes():
                index_of(reg)
            if instr.op is Opcode.BR:
                branch_keys[instr.uid] = (
                    f"{function.name}:{len(branch_keys)}"
                )

        chunks: list[str] = []
        binder_names: dict[str, str] = {}
        for position, label in enumerate(function.block_order):
            block = function.blocks[label]
            instrs = block.flat_instructions()
            lines = [
                "def __block(R, fb):",
                f"    S.cycles += {block.cycles}",
                f"    S.bundles += {block.cycles}",
                f"    S.dynamic_ops += {block.op_count}",
                "    if S.cycles > S.max_cycles:",
                "        raise SimError('cycle budget exceeded')",
            ]
            for instr in instrs:
                instr_lines = self._instr_lines(instr, reg_index, branch_keys)
                if instr.guard is not None:
                    guard_expr = f"R[{reg_index[instr.guard]}]"
                    lines.append(f"    if {guard_expr}:")
                    lines.extend(_indent(instr_lines, 8))
                    lines.append("    else:")
                    lines.append("        S.squashed_ops += 1")
                    lines.append("        S.dynamic_ops -= 1")
                else:
                    lines.extend(_indent(instr_lines, 4))
            if not instrs or not instrs[-1].is_terminator:
                raise SimError(f"block {label} lacks a terminator")
            binder = f"__bind_{position}"
            binder_names[label] = binder
            chunk = [
                f"def {binder}({_BIND_PARAMS}):",
            ]
            chunk.extend(_indent(lines, 4))
            chunk.append("    return __block")
            chunks.append("\n".join(chunk))

        source = "\n\n".join(chunks)
        param_indices = [reg_index[param] for param in function.params]
        return source, param_indices, len(reg_index), binder_names

    def _function_code(self, function: ScheduledFunction) -> _FunctionCode:
        """Translate-or-recall: the exec/compile step is cached at
        module level, keyed by the function's content identity."""
        global _codegen_hits, _codegen_misses
        source, param_indices, reg_count, binder_names = (
            self._translate_function(function)
        )
        key = (
            function.name,
            function.entry_label,
            function.frame_words,
            len(function.params),
            hashlib.sha256(source.encode()).hexdigest(),
        )
        with _CODEGEN_LOCK:
            cached = _CODEGEN_CACHE.get(key)
            if cached is not None:
                _CODEGEN_CACHE.move_to_end(key)
                _codegen_hits += 1
                obs.inc("sim.codegen_hits")
                return cached
            _codegen_misses += 1
        obs.inc("sim.codegen_misses")
        # Translate outside the lock: exec/compile is the expensive
        # part, and two threads racing on the same key produce
        # identical code objects (last writer wins benignly).
        local_ns: dict = {}
        exec(compile(source, f"<sim:{function.name}>", "exec"),
             _STATIC_NAMESPACE, local_ns)
        code = _FunctionCode(
            param_indices=param_indices,
            reg_count=reg_count,
            binders={label: local_ns[name]
                     for label, name in binder_names.items()},
        )
        with _CODEGEN_LOCK:
            _CODEGEN_CACHE[key] = code
            while len(_CODEGEN_CACHE) > _CODEGEN_CACHE_CAPACITY:
                _CODEGEN_CACHE.popitem(last=False)
        return code

    def _compile_function(self,
                          function: ScheduledFunction) -> _CompiledFunction:
        code = self._function_code(function)
        level1 = self.caches.levels[0]
        bindings = dict(
            S=self,
            MEM=self.memory,
            OUTS=self.outputs,
            SETS=level1.sets,
            MASK=level1.index_mask,
            SHIFT=level1.word_shift,
            STATS=level1.stats,
            LOAD_MISS=self.caches.load_miss,
            STORE_MISS=self.caches.store_miss,
            PREFETCH=self.caches.prefetch,
            COUNTERS=self.branch_counters,
            BRANCHES=self.branch_stats,
            CALL=self._call,
            L1=self.machine.load_latency,
            PEN=self.machine.mispredict_penalty,
        )
        return _CompiledFunction(
            name=function.name,
            param_indices=list(code.param_indices),
            reg_count=code.reg_count,
            frame_words=function.frame_words,
            entry=function.entry_label,
            blocks={label: binder(**bindings)
                    for label, binder in code.binders.items()},
        )
