"""Differential oracle: observable equality, divergence reporting."""

import math

import pytest

from repro.gp.genome import expression_text
from repro.machine import sim as sim_mod
from repro.machine.descr import CASE_NAMES
from repro.metaopt.harness import case_study
from repro.metaopt.priority import PriorityFunction
from repro.passes.pipeline import CompilerOptions
from repro.verify.differential import (
    Divergence,
    compare_executions,
    options_summary,
    run_differential,
    values_equal,
)

#: the cases whose candidates are priority-function trees
TREE_CASES = [name for name in CASE_NAMES if case_study(name).tree_valued]

SOURCE = """
int data[8];
float scale[4];
void main() {
  int i;
  int acc = 0;
  float facc = 0.0;
  for (i = 0; i < 8; i = i + 1) { acc = acc + data[i]; }
  for (i = 0; i < 4; i = i + 1) { facc = facc + scale[i] * acc; }
  data[0] = acc;
  out(acc);
  out(facc);
}
"""

INPUTS = {"data": [3, -1, 4, -1, 5, -9, 2, 6],
          "scale": [0.5, -0.25, 1.5, 2.0]}

FAULTING = """
int n;
void main() {
  out(100 / n);
}
"""


class TestValuesEqual:
    def test_ints(self):
        assert values_equal(3, 3)
        assert not values_equal(3, 4)

    def test_int_float_distinct(self):
        assert not values_equal(1, 1.0)

    def test_nan_equals_nan(self):
        assert values_equal(float("nan"), float("nan"))
        assert not values_equal(float("nan"), 0.0)

    def test_signed_zero_distinct(self):
        assert not values_equal(0.0, -0.0)
        assert values_equal(-0.0, -0.0)

    def test_inf(self):
        assert values_equal(math.inf, math.inf)
        assert not values_equal(math.inf, -math.inf)


class TestCompareExecutions:
    def test_both_faults_agree(self):
        assert compare_executions(None, None, {}, {},
                                  interp_fault="div0",
                                  sim_fault="div0 too") == []

    def test_one_sided_fault_diverges(self):
        divergences = compare_executions(None, None, {}, {},
                                         interp_fault="div0",
                                         sim_fault=None)
        assert divergences[0].channel == "fault"


class TestRunDifferential:
    def test_clean_program_equivalent(self):
        result = run_differential(SOURCE, INPUTS)
        assert result.equivalent
        assert result.divergences == []
        assert result.options_summary["machine"] == "epic-default"

    def test_verify_ir_composes(self):
        options = CompilerOptions(verify_ir=True)
        result = run_differential(SOURCE, INPUTS, options)
        assert result.equivalent

    @pytest.mark.parametrize("name", TREE_CASES)
    def test_an_evolved_candidate_in_a_hook_is_reported_custom(self, name):
        """Every tree hook holding a :class:`PriorityFunction` is
        summarised, and reported custom, on a full differential run."""
        case = case_study(name)
        candidate = PriorityFunction.from_text(
            expression_text(case.baseline_tree()), case.pset)
        options = case.options_for(candidate)
        summary = options_summary(options)
        assert summary[f"custom_{case.hook}"] is True
        assert [hook for hook, custom in summary.items()
                if hook.startswith("custom_") and custom] \
            == [f"custom_{case.hook}"]
        result = run_differential(SOURCE, INPUTS, options)
        assert result.equivalent
        assert result.options_summary == summary

    def test_stock_options_report_no_custom_hook(self):
        summary = options_summary(CompilerOptions())
        assert [hook for hook in summary if hook.startswith("custom_")] == [
            "custom_hyperblock_priority", "custom_spill_priority",
            "custom_prefetch_priority", "custom_schedule_priority",
            "custom_unroll_priority"]
        assert not any(value for hook, value in summary.items()
                       if hook.startswith("custom_"))

    def test_agreed_fault_is_equivalent(self):
        result = run_differential(FAULTING, {"n": [0]})
        assert result.equivalent
        assert result.interp_fault is not None
        assert result.sim_fault is not None

    def test_injected_miscompile_reported(self, monkeypatch):
        original = sim_mod.Simulator.run

        def corrupted(self, entry="main"):
            result = original(self, entry)
            result.outputs = [value + 1 if isinstance(value, int) else value
                              for value in result.outputs]
            return result

        monkeypatch.setattr(sim_mod.Simulator, "run", corrupted)
        result = run_differential(SOURCE, INPUTS)
        assert not result.equivalent
        first = result.first
        assert first is not None and first.channel == "out"
        payload = result.to_json_dict()
        assert payload["equivalent"] is False
        assert payload["divergences"][0]["channel"] == "out"
        assert payload["options"]["machine"] == "epic-default"

    def test_global_channel_names_symbol(self, monkeypatch):
        original = sim_mod.Simulator.run

        def corrupt_memory(self, entry="main"):
            result = original(self, entry)
            base = self._layout["data"]
            self.memory[base] = self.memory.get(base, 0) + 7
            return result

        monkeypatch.setattr(sim_mod.Simulator, "run", corrupt_memory)
        result = run_differential(SOURCE, INPUTS)
        assert not result.equivalent
        channels = {d.channel for d in result.divergences}
        assert "global" in channels
        diverged = next(d for d in result.divergences
                        if d.channel == "global")
        assert diverged.symbol == "data"
        assert diverged.index == 0


class TestDivergenceRendering:
    def test_str_and_json(self):
        divergence = Divergence(channel="global", detail="differs",
                                symbol="data", index=3,
                                interp_value=1, sim_value=2)
        text = str(divergence)
        assert "global data[3]" in text
        payload = divergence.to_json_dict()
        assert payload["symbol"] == "data"
        assert payload["index"] == 3

    def test_json_encodes_nonfinite_floats(self):
        divergence = Divergence(channel="out", detail="nan",
                                interp_value=float("nan"),
                                sim_value=float("-inf"))
        payload = divergence.to_json_dict()
        assert payload["interp_value"] == "nan"
        assert payload["sim_value"] == "-inf"
