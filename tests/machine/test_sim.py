"""Timing-simulator tests: functional equivalence with the reference
interpreter, cycle accounting for stalls/mispredicts/squashes,
measurement-noise behaviour, and when generated code calls
``wrap_int``."""

import json
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.ir.interp import Interpreter, wrap_int
from repro.machine.descr import DEFAULT_EPIC
from repro.machine.sim import _STATIC_NAMESPACE, SimError, Simulator
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
            options.with_priorities(hyperblock_priority=lambda env: 1.0),
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
