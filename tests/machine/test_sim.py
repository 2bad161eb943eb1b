"""Timing-simulator tests: functional equivalence with the reference
interpreter, cycle accounting for stalls/mispredicts/squashes,
measurement-noise behaviour, when generated code calls ``wrap_int``,
and the generated function's inner loops: each loop shape's counters
and faults, how many generated calls a run makes, and that a simulator
is freed by reference counting when ``run()`` returns."""

import dataclasses
import gc
import json
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.ir.function import Function, Module
from repro.ir.instr import (
    Instr,
    Opcode,
    Rel,
    binop,
    br,
    call,
    cmp,
    jmp,
    mov,
    out,
    ret,
)
from repro.ir.interp import InterpError, Interpreter, wrap_int
from repro.ir.values import INT, PRED, Imm, PReg, VReg
from repro.machine import cache
from repro.machine.descr import DEFAULT_EPIC
from repro.machine.sim import (
    _STATIC_NAMESPACE,
    ProfilingRun,
    SimError,
    Simulator,
)
from repro.metaopt.harness import case_study
from repro.passes.pipeline import CompilerOptions, compile_backend, prepare
from repro.passes.regalloc import allocate_module
from repro.passes.schedule import schedule_module
from repro.suite.registry import get as get_benchmark

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def build(source, inputs=None, allocate=True):
    module = compile_source(source)
    if allocate:
        allocate_module(module, DEFAULT_EPIC)
    scheduled = schedule_module(module, DEFAULT_EPIC)
    return scheduled


def simulate(scheduled, inputs=None, **kwargs):
    simulator = Simulator(scheduled, DEFAULT_EPIC, **kwargs)
    for name, values in (inputs or {}).items():
        simulator.set_global(name, values)
    return simulator.run()


def reference(source, inputs=None):
    module = compile_source(source)
    interp = Interpreter(module)
    for name, values in (inputs or {}).items():
        interp.set_global(name, values)
    return interp.run()


LOOP_SOURCE = """
int data[128];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 4) { acc = acc + data[i]; } else { acc = acc - 1; }
  }
  out(acc);
}
"""

LOOP_INPUTS = {"data": [(i * 13) % 9 for i in range(128)], "n": [100]}


class TestEquivalence:
    def test_loop_program(self):
        ref = reference(LOOP_SOURCE, LOOP_INPUTS)
        result = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        assert result.output_signature() == ref.output_signature()

    def test_calls_and_floats(self):
        source = """
        float scale;
        float poly(float x) { return x * x + 2.0 * x + 1.0; }
        void main() {
          float total = 0.0;
          int i;
          for (i = 0; i < 20; i = i + 1) {
            total = total + poly(i * scale);
          }
          out(total);
        }
        """
        inputs = {"scale": [0.25]}
        ref = reference(source, inputs)
        result = simulate(build(source), inputs)
        assert result.output_signature() == ref.output_signature()

    def test_division_fault_propagates(self):
        source = "void main() { int z = 0; out(7 / z); }"
        with pytest.raises(SimError):
            simulate(build(source))

    def test_unscheduled_entry_rejected(self):
        scheduled = build(LOOP_SOURCE)
        simulator = Simulator(scheduled, DEFAULT_EPIC)
        with pytest.raises(SimError):
            simulator.run(entry="ghost")

    def test_cycle_budget(self):
        scheduled = build(LOOP_SOURCE)
        simulator = Simulator(scheduled, DEFAULT_EPIC, max_cycles=10)
        for name, values in LOOP_INPUTS.items():
            simulator.set_global(name, values)
        with pytest.raises(SimError):
            simulator.run()


class TestCycleAccounting:
    def test_cycles_positive_and_decomposable(self):
        result = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        assert result.cycles > 0
        assert result.cycles >= result.bundles
        assert result.cycles == result.bundles + result.memory_stall_cycles \
            + result.branch_stall_cycles

    def test_memory_stalls_counted(self):
        # 128 cold loads with a long stride: every line misses.
        source = """
        int data[4096];
        void main() {
          int acc = 0;
          int i;
          for (i = 0; i < 4096; i = i + 32) { acc = acc + data[i]; }
          out(acc);
        }
        """
        result = simulate(build(source))
        assert result.memory_stall_cycles > 100

    def test_branch_stalls_on_unpredictable_branch(self):
        source = """
        int data[128];
        void main() {
          int acc = 0;
          int i;
          for (i = 0; i < 128; i = i + 1) {
            if (data[i] == 1) { acc = acc + 3; } else { acc = acc - 1; }
          }
          out(acc);
        }
        """
        alternating = {"data": [i % 2 for i in range(128)]}
        result = simulate(build(source), alternating)
        assert result.branch_stall_cycles >= 40 * DEFAULT_EPIC.mispredict_penalty
        assert result.branch_accuracy < 0.9

    def test_dynamic_op_count(self):
        ref = reference(LOOP_SOURCE, LOOP_INPUTS)
        result = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        # The scheduled module runs the same instruction mix; dynamic op
        # count is within scheduling/cleanup noise of interpreter steps.
        assert result.dynamic_ops > 0.5 * ref.steps

    def test_squashed_ops_counted_for_predicated_code(self):
        options = CompilerOptions(machine=DEFAULT_EPIC)
        module = compile_source(LOOP_SOURCE)
        prepared = prepare(module, LOOP_INPUTS, options)
        scheduled, report = compile_backend(
            prepared,
            dataclasses.replace(options,
                                hyperblock_priority=lambda env: 1.0),
        )
        assert any(r.regions_converted
                   for r in report.hyperblock.values())
        result = simulate(scheduled, LOOP_INPUTS)
        assert result.squashed_ops > 0
        ref = reference(LOOP_SOURCE, LOOP_INPUTS)
        assert result.output_signature() == ref.output_signature()


class TestNoise:
    def test_zero_noise_deterministic(self):
        first = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        second = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        assert first.cycles == second.cycles

    def test_noise_perturbs_cycles(self):
        base = simulate(build(LOOP_SOURCE), LOOP_INPUTS)
        noisy = simulate(build(LOOP_SOURCE), LOOP_INPUTS,
                         noise_stddev=0.05, noise_seed=3)
        assert noisy.cycles != base.cycles
        # ...but stays within a few standard deviations.
        assert abs(noisy.cycles - base.cycles) < 0.5 * base.cycles

    def test_noise_reproducible_per_seed(self):
        first = simulate(build(LOOP_SOURCE), LOOP_INPUTS,
                         noise_stddev=0.05, noise_seed=11)
        second = simulate(build(LOOP_SOURCE), LOOP_INPUTS,
                          noise_stddev=0.05, noise_seed=11)
        third = simulate(build(LOOP_SOURCE), LOOP_INPUTS,
                         noise_stddev=0.05, noise_seed=12)
        assert first.cycles == second.cycles
        assert first.cycles != third.cycles

    def test_noise_does_not_change_outputs(self):
        ref = reference(LOOP_SOURCE, LOOP_INPUTS)
        noisy = simulate(build(LOOP_SOURCE), LOOP_INPUTS,
                         noise_stddev=0.1, noise_seed=5)
        assert noisy.output_signature() == ref.output_signature()


class TestWrapCalls:
    """Generated code range-checks each integer result inline and calls
    ``wrap_int`` (``wi``, looked up at run time) only for one outside
    64 bits."""

    @pytest.fixture
    def wrap_calls(self, monkeypatch):
        calls = []

        def counting_wrap(value):
            calls.append(value)
            return wrap_int(value)

        monkeypatch.setitem(_STATIC_NAMESPACE, "wi", counting_wrap)
        return calls

    @pytest.mark.parametrize("case_name", ["hyperblock", "regalloc",
                                           "prefetch"])
    @pytest.mark.parametrize("bench_name", ["codrle4", "unepic"])
    def test_baselines_make_no_call(self, wrap_calls, bench_name,
                                    case_name):
        bench = get_benchmark(bench_name)
        case = case_study(case_name)
        inputs = bench.inputs("train")
        prepared = prepare(compile_source(bench.source, bench.name),
                           inputs, case.options)
        scheduled, _report = compile_backend(prepared)
        simulator = Simulator(scheduled, case.machine)
        for name, values in inputs.items():
            simulator.set_global(name, values)
        assert simulator.run().dynamic_ops > 0
        assert wrap_calls == []

    def test_out_of_range_results_call_it(self, wrap_calls):
        source = (CORPUS_DIR / "int-wrap.mc").read_text()
        inputs = json.loads((CORPUS_DIR / "int-wrap.inputs.json").read_text())
        result = simulate(build(source), inputs)
        assert len(wrap_calls) > 0
        assert result.output_signature() == \
            reference(source, inputs).output_signature()


NESTED_SOURCE = """
int data[64];
void main() {
  int acc = 0;
  int i;
  int j;
  for (i = 0; i < 8; i = i + 1) {
    for (j = 0; j < i; j = j + 1) { acc = acc + data[i * 8 + j] * j; }
    out(acc);
  }
}
"""

TWO_EXIT_SOURCE = """
int data[64];
int n;
int find(int key) {
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] == key) { return i; }
  }
  return -1;
}
void main() { out(find(7)); out(find(1000)); out(find(3)); }
"""

CALL_FAULT_SOURCE = """
int data[16];
int ratio(int x) { return 100 / x; }
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < 16; i = i + 1) { acc = acc + ratio(data[i]); out(acc); }
}
"""


def self_loop_module() -> Module:
    """``main(n)``: one block adds ``i`` to ``acc`` and branches back to
    itself while ``i < n``."""
    module = Module()
    function = Function("main", [VReg(0, INT, "n")])
    (limit,) = function.params
    entry, loop, done = (function.new_block(hint)
                         for hint in ("entry", "loop", "done"))
    index, acc, more = (function.new_vreg(INT, name)
                        for name in ("i", "acc", "more"))
    entry.append(mov(index, Imm(0)))
    entry.append(mov(acc, Imm(0)))
    entry.append(jmp(loop.label))
    loop.append(binop(Opcode.ADD, acc, acc, index))
    loop.append(binop(Opcode.ADD, index, index, Imm(1)))
    loop.append(cmp(more, Rel.LT, index, limit))
    loop.append(br(more, loop.label, done.label))
    done.append(out(acc))
    done.append(ret(acc))
    module.add_function(function)
    return module


def entry_header_module() -> Module:
    """``main(n)``: the entry block is the loop header; the body prints
    ``n`` and counts it down."""
    module = Module()
    function = Function("main", [VReg(0, INT, "n")])
    (count,) = function.params
    head, body, done = (function.new_block(hint)
                        for hint in ("head", "body", "done"))
    more = function.new_vreg(INT, "more")
    head.append(cmp(more, Rel.GT, count, Imm(0)))
    head.append(br(more, body.label, done.label))
    body.append(out(count))
    body.append(binop(Opcode.SUB, count, count, Imm(1)))
    body.append(jmp(head.label))
    done.append(ret(count))
    module.add_function(function)
    return module


def from_source(source):
    return build(source), compile_source(source)


def from_ir(make_module):
    return schedule_module(make_module(), DEFAULT_EPIC), make_module()


def hyperblock_loop():
    options = CompilerOptions(machine=DEFAULT_EPIC)
    prepared = prepare(compile_source(LOOP_SOURCE), LOOP_INPUTS, options)
    scheduled, report = compile_backend(
        prepared,
        dataclasses.replace(options, hyperblock_priority=lambda env: 1.0))
    assert any(r.regions_converted for r in report.hyperblock.values())
    return scheduled, compile_source(LOOP_SOURCE)


#: shape -> (binary and reference module, inputs, args, max_cycles)
LOOP_SHAPES = {
    "nested": (lambda: from_source(NESTED_SOURCE),
               {"data": [(i * 5) % 7 for i in range(64)]}, (), None),
    "two-exit": (lambda: from_source(TWO_EXIT_SOURCE),
                 {"data": [(i * 3) % 11 for i in range(64)], "n": [40]},
                 (), None),
    "self-loop": (lambda: from_ir(self_loop_module), {}, (50,), None),
    "entry-header": (lambda: from_ir(entry_header_module), {}, (12,), None),
    "predicated": (hyperblock_loop, LOOP_INPUTS, (), None),
    "call-faults": (lambda: from_source(CALL_FAULT_SOURCE),
                    {"data": [9, 4, -3, 7, 1, 5, 2, 8, 6, 0, 3, 2]},
                    (), None),
    "budget": (lambda: from_source(LOOP_SOURCE), LOOP_INPUTS, (), 300),
    "call-budget": (lambda: from_source(CALL_FAULT_SOURCE),
                    {"data": [9, 4, -3, 7, 1, 5, 2, 8, 6, 3, 3, 2,
                              5, 1, 7, 4]},
                    (), 450),
}

#: (cycles, bundles, dynamic_ops, squashed_ops, memory_stall,
#: branch_stall) and fault text of each shape, recorded from the
#: simulator that called one generated function per block.
LOOP_SHAPE_COUNTERS = {
    "budget": ((304, 58, 59, 0, 236, 10), "cycle budget exceeded"),
    "call-budget": ((457, 221, 164, 0, 236, 0), "cycle budget exceeded"),
    "call-faults": ((445, 209, 151, 0, 236, 0), "integer division by zero"),
    "entry-header": ((44, 39, 63, 0, 0, 5), None),
    "nested": ((1397, 516, 488, 0, 826, 55), None),
    "predicated": ((3364, 1707, 1341, 268, 1652, 5), None),
    "self-loop": ((157, 152, 205, 0, 0, 5), None),
    "two-exit": ((1426, 698, 655, 0, 708, 20), None),
}


#: Generated calls a shape's run makes: one per invocation of a
#: scheduled function.  ``call-faults`` and ``call-budget`` call
#: ``ratio`` ten times from ``main``'s loop.
LOOP_SHAPE_CALLS = {
    "budget": 1, "call-budget": 11, "call-faults": 11, "entry-header": 1,
    "nested": 1, "predicated": 1, "self-loop": 1, "two-exit": 4,
}


def simulator_counters(simulator):
    return (simulator.cycles, simulator.bundles, simulator.dynamic_ops,
            simulator.squashed_ops, simulator.memory_stall,
            simulator.branch_stall)


def run_shape(shape, built):
    """Run ``shape``'s binary and reference module, ``built`` by its
    maker, on the simulator and the interpreter."""
    _make, inputs, args, max_cycles = LOOP_SHAPES[shape]
    scheduled, module = built
    simulator = Simulator(scheduled, DEFAULT_EPIC,
                          max_cycles=max_cycles or 100_000_000)
    interpreter = Interpreter(module)
    for name, values in inputs.items():
        simulator.set_global(name, values)
        interpreter.set_global(name, values)
    observed = []
    for machine, error in ((simulator, SimError),
                           (interpreter, InterpError)):
        try:
            observed.append((machine.run("main", args).return_value, None))
        except error as exc:
            observed.append((None, str(exc)))
    return simulator, interpreter, observed


def sim_frame_calls(run):
    """Calls into generated simulator code (``<sim:...>`` frames) while
    ``run()`` executes, and its result.  The one-time module body and
    ``__bind`` factories of a translation do not count."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename.startswith("<sim:") \
                and code.co_name != "<module>" \
                and not code.co_name.startswith("__bind"):
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def _guard_terminator(body, _function):
    body.flat_instructions()[-1].guard = VReg(99, PRED, "p")


def _jump_mid_block(body, function):
    body.bundles[0].instrs.insert(0, jmp(function.entry_label))


def _jump_to_unknown_label(body, _function):
    body.flat_instructions()[-1].targets = ("nowhere",)


def _call_unknown_function(body, _function):
    body.bundles[0].instrs.insert(0, call(None, "ghost", ()))


#: defect -> (what it does to a block of a scheduled function, the
#: translation's refusal)
TRANSLATION_DEFECTS = {
    "guarded": (_guard_terminator, "one unguarded terminator"),
    "mid-block": (_jump_mid_block, "one unguarded terminator"),
    "unknown-label": (_jump_to_unknown_label, "unknown block 'nowhere'"),
    "unknown-callee": (_call_unknown_function, "unknown function 'ghost'"),
}


class TestLoopRegions:
    """Every scheduled function runs in one generated call, its
    innermost loops inside it.  Each shape must keep the outputs of the
    interpreter and the exact counters and fault of the call-per-block
    simulator."""

    @pytest.mark.parametrize("shape", sorted(LOOP_SHAPES))
    def test_shape(self, shape):
        # built first: preparing ``predicated`` runs its training
        # profile, which is generated code too
        built = LOOP_SHAPES[shape][0]()
        calls, (simulator, interpreter, (simulated, interpreted)) = \
            sim_frame_calls(lambda: run_shape(shape, built))
        counters, fault = LOOP_SHAPE_COUNTERS[shape]
        assert simulated[1] == fault
        assert simulator_counters(simulator) == counters
        if shape.endswith("budget"):
            # the interpreter has no cycle budget and runs to the end
            assert interpreted[1] is None
            assert simulator.outputs == \
                interpreter.outputs[:len(simulator.outputs)]
        else:
            assert simulated == interpreted
            assert simulator.outputs == interpreter.outputs
        assert calls == LOOP_SHAPE_CALLS[shape]


    @pytest.mark.parametrize("defect", sorted(TRANSLATION_DEFECTS))
    def test_terminator_must_end_its_block_unguarded(self, defect):
        """An arm falls through to a later arm after its block's
        terminator, so a block whose terminator is guarded, or comes
        before other operations, is refused; so are a jump to a label
        the function lacks and a call to a function the module lacks.
        Both forms refuse with ``ValueError`` (malformed IR), not
        ``SimError`` (a faulting program)."""
        for form in ("timing", "profiling"):
            module = entry_header_module()
            executor = (Simulator(schedule_module(module, DEFAULT_EPIC),
                                  DEFAULT_EPIC)
                        if form == "timing" else ProfilingRun(module))
            function = executor.scheduled.functions["main"]
            body = function.blocks[function.block_order[1]]
            corrupt, refusal = TRANSLATION_DEFECTS[defect]
            corrupt(body, function)
            with pytest.raises(ValueError, match=refusal):
                executor.run("main", (3,))


class TestTranslationFrames:
    """The translation reads each instruction once, as it makes its
    lines: it checks each block's last instruction only, tests for an
    earlier terminator by opcode, and keys its register table by uid
    (a ``VReg``) or by index and type (a ``PReg``).  So no ``reads``
    or ``writes`` frame runs per instruction, nor a register
    ``__hash__`` or ``__eq__`` per operand."""

    PER_INSTRUCTION = {
        Instr.reads.__code__: "reads",
        Instr.writes.__code__: "writes",
        VReg.__hash__.__code__: "VReg.__hash__",
        VReg.__eq__.__code__: "VReg.__eq__",
        PReg.__hash__.__code__: "PReg.__hash__",
        PReg.__eq__.__code__: "PReg.__eq__",
    }

    @pytest.mark.parametrize("case_name", ["hyperblock", "regalloc"])
    def test_no_frame_per_instruction_or_register(self, case_name):
        bench = get_benchmark("unepic")
        case = case_study(case_name)
        prepared = prepare(compile_source(bench.source, bench.name),
                           bench.inputs("train"), case.options)
        scheduled, _report = compile_backend(prepared)
        # physical registers in the scheduled binary, virtual ones in
        # the prepared module's program order
        for executor in (Simulator(scheduled, case.machine),
                         ProfilingRun(prepared.module)):
            frames = Counter()

            def hook(frame, event, _arg):
                if event == "call":
                    code = frame.f_code
                    frames[self.PER_INSTRUCTION.get(code, code.co_name)] += 1

            sys.setprofile(hook)
            try:
                for function in executor.scheduled.functions.values():
                    executor._translate_function(function)
            finally:
                sys.setprofile(None)
            assert frames["_instr_lines"] > 50
            assert {name: frames[name]
                    for name in self.PER_INSTRUCTION.values()
                    if frames[name]} == {}


def unepic_baseline() -> Simulator:
    """A simulator of ``unepic``'s regalloc baseline on its training
    input."""
    bench = get_benchmark("unepic")
    case = case_study("regalloc")
    inputs = bench.inputs("train")
    prepared = prepare(compile_source(bench.source, bench.name),
                       inputs, case.options)
    scheduled, _report = compile_backend(prepared)
    simulator = Simulator(scheduled, case.machine)
    for name, values in inputs.items():
        simulator.set_global(name, values)
    return simulator


class TestRegionCalls:
    """Shaped like ``TestWrapCalls``: ``unepic``'s regalloc baseline
    is one scheduled function, so a run makes one generated call, not
    one per loop entry (31) or per block entry (about 13.7k)."""

    def test_unepic_baseline_enters_each_loop_once(self):
        calls, result = sim_frame_calls(unepic_baseline().run)
        assert result.bundles > 10_000
        assert calls == 1


class TestMissFrames:
    """Shaped like ``TestRegionCalls``: an L1 load or store miss is one
    call from the generated code into ``machine/cache.py``, whose frame
    walks L2 and L3 and fills what missed without calling a
    ``CacheLevel`` method (about seven frames per miss before)."""

    def test_unepic_baseline_makes_one_cache_frame_per_miss(self):
        simulator = unepic_baseline()
        frames = Counter()

        def profile(frame, event, arg):
            """Cache frames made under a generated function, by name and
            by whether the generated code made them itself (``run()``
            reads the stats' properties after it returns)."""
            if event != "call" or frame.f_code.co_filename != cache.__file__:
                return
            outer = frame.f_back
            while outer is not None \
                    and not outer.f_code.co_filename.startswith("<sim:"):
                outer = outer.f_back
            if outer is not None:
                frames[frame.f_code.co_name, outer is frame.f_back] += 1

        sys.setprofile(profile)
        try:
            result = simulator.run()
        finally:
            sys.setprofile(None)
        misses = simulator.caches.levels[0].stats.misses
        assert misses > 100
        assert result.load_count - misses > 5_000  # L1 hits, inline
        stores = frames["store_miss", True]
        assert stores > 100
        # every frame is a miss the generated code called, nothing nests
        assert frames == {("load_miss", True): misses,
                          ("store_miss", True): stores}


class TestRecursiveRegisters:
    """Registers are locals of the generated function, so a callee
    must not see its caller's: a recursive function whose live values
    span its own calls simulates equal to the interpreter in both
    forms."""

    SOURCE = """
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int down(int n, int acc) {
      int here = n * 3 + acc;
      int below = 0;
      if (n > 0) { below = down(n - 1, here); }
      return here + below;
    }
    int main() {
      out(fib(12));
      out(down(9, 1));
      return fib(7) * 100 + down(3, 2);
    }
    """

    def test_timing_form_matches_the_interpreter(self):
        expected = reference(self.SOURCE)
        assert expected.outputs == [144, 1000]
        result = simulate(build(self.SOURCE))
        assert result.output_signature() == expected.output_signature()

    def test_profiling_form_matches_the_interpreter(self):
        module = compile_source(self.SOURCE)
        interpreter = Interpreter(module)
        expected = interpreter.run()
        run = ProfilingRun(module)
        assert run.run() == expected
        assert run.control_counts() == interpreter.control_counts()


class TestFreedOnReturn:
    """The bound generated functions close over their simulator; run()
    drops them when it returns or faults, so with the cyclic collector
    off a simulator still dies on its last ``del``, and a second run()
    binds them again."""

    @pytest.mark.parametrize("max_cycles,fault", [
        (100_000_000, None), (300, "cycle budget exceeded")])
    def test_simulator_dies_without_the_cyclic_collector(self, max_cycles,
                                                          fault):
        scheduled = build(LOOP_SOURCE)
        enabled = gc.isenabled()
        gc.disable()
        try:
            simulator = Simulator(scheduled, DEFAULT_EPIC,
                                  max_cycles=max_cycles)
            for name, values in LOOP_INPUTS.items():
                simulator.set_global(name, values)
            outcomes = []
            for _ in range(2):
                try:
                    outcomes.append(simulator.run().outputs)
                except SimError as exc:
                    outcomes.append(str(exc))
            if fault is None:
                assert len(outcomes[0]) == 1
                assert outcomes[1] == outcomes[0] * 2
            else:
                assert outcomes == [fault, fault]
            alive = weakref.ref(simulator)
            del simulator
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
