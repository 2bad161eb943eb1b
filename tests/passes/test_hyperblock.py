"""Hyperblock formation: region matching, Table 4 features, the
IMPACT baseline, conversion legality, and decision mechanics."""

import random

import pytest

from repro.frontend import compile_source
from repro.ir.cfg import predecessors
from repro.ir.interp import Interpreter
from repro.ir.instr import Opcode
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.psets import (
    HYPERBLOCK_BOOL_FEATURES,
    HYPERBLOCK_REAL_FEATURES,
)
from repro.passes.hyperblock import (
    HyperblockFormation,
    PathInfo,
    form_hyperblocks,
    impact_priority,
    region_feature_env,
)
from repro.profile.profiler import collect_profile
from tests.ir.test_liveness_property import compile_every_program

DIAMOND = """
int data[64];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 5) { acc = acc + data[i] * 2; } else { acc = acc - 1; }
  }
  out(acc);
}
"""

TRIANGLE = """
int data[64];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 5) { acc = acc + data[i]; }
    acc = acc + 1;
  }
  out(acc);
}
"""

NESTED = """
int data[64];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 3) {
      if (data[i] > 8) { acc = acc + 3; } else { acc = acc + 1; }
    } else {
      acc = acc - 1;
    }
  }
  out(acc);
}
"""

LOOP_IN_ARM = """
int data[64];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 5) {
      int j;
      for (j = 0; j < 3; j = j + 1) { acc = acc + j; }
    } else {
      acc = acc - 1;
    }
  }
  out(acc);
}
"""

INPUTS = {"data": [(i * 7) % 11 for i in range(64)], "n": [60]}


def formation(source, priority=impact_priority, inputs=INPUTS, **kwargs):
    module = compile_source(source)
    profile = collect_profile(module, inputs)
    func = module.functions["main"]
    form = HyperblockFormation(
        func, DEFAULT_EPIC, profile.function("main"), priority, **kwargs
    )
    report = form.run()
    return module, func, report


def run_module(module, inputs=INPUTS):
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.set_global(name, values)
    return interp.run()


class TestRegionMatching:
    def test_diamond_found(self):
        _module, _func, report = formation(DIAMOND,
                                           priority=lambda env: -1.0)
        assert report.regions_considered == 1
        decision = report.decisions[0]
        assert len(decision.paths) == 2
        assert {p.side for p in decision.paths} == {"taken", "fall"}

    def test_triangle_found(self):
        _module, _func, report = formation(TRIANGLE,
                                           priority=lambda env: -1.0)
        assert report.regions_considered == 1
        empty_arms = [p for p in report.decisions[0].paths if p.entry is None]
        assert len(empty_arms) == 1

    def test_loop_in_arm_not_convertible(self):
        _module, _func, report = formation(LOOP_IN_ARM,
                                           priority=lambda env: 1e9)
        assert report.regions_converted == 0

    def test_nested_converts_inner_then_outer(self):
        _module, _func, report = formation(NESTED, priority=lambda env: 1.0)
        assert report.regions_converted == 2

    def test_straightline_program_no_regions(self):
        source = "void main() { out(1 + 2); }"
        _module, _func, report = formation(source, inputs={})
        assert report.regions_considered == 0


class TestFeatures:
    def _paths(self, source, inputs=INPUTS):
        _module, _func, report = formation(source,
                                           priority=lambda env: -1.0,
                                           inputs=inputs)
        return report.decisions[0].paths

    def test_exec_ratios_sum_to_one_for_diamond(self):
        paths = self._paths(DIAMOND)
        total = sum(p.exec_ratio for p in paths)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_exec_ratio_reflects_profile(self):
        biased = {"data": [10] * 64, "n": [60]}  # always takes the if
        paths = self._paths(DIAMOND, inputs=biased)
        taken = next(p for p in paths if p.side == "taken")
        assert taken.exec_ratio > 0.95

    def test_num_ops_counts_head_plus_arm(self):
        paths = self._paths(DIAMOND)
        taken = next(p for p in paths if p.side == "taken")
        fall = next(p for p in paths if p.side == "fall")
        assert taken.num_ops > fall.num_ops  # then-arm is bigger

    def test_dep_height_positive(self):
        for path in self._paths(DIAMOND):
            assert path.dep_height >= 1.0

    def test_env_contains_all_declared_features(self):
        """The env builder and the pset's names are kept in step: the
        environment has exactly the declared features."""
        paths = self._paths(DIAMOND)
        env = region_feature_env(paths, 0)
        assert set(env) == {*HYPERBLOCK_REAL_FEATURES,
                            *HYPERBLOCK_BOOL_FEATURES}
        for name in HYPERBLOCK_REAL_FEATURES:
            assert isinstance(env[name], float), name
        for name in HYPERBLOCK_BOOL_FEATURES:
            assert isinstance(env[name], bool), name

    def test_aggregates_consistent(self):
        paths = self._paths(DIAMOND)
        env = region_feature_env(paths, 0)
        assert env["num_ops_max"] >= env["num_ops"] >= env["num_ops_min"]
        assert env["num_ops_min"] <= env["num_ops_mean"] <= env["num_ops_max"]
        assert env["num_paths"] == 2.0

    def test_call_marks_unsafe_jsr(self):
        source = """
        int data[64];
        int n;
        int helper(int x) { return x; }
        void main() {
          int acc = 0;
          int i;
          for (i = 0; i < n; i = i + 1) {
            if (data[i] > 5) { acc = acc + helper(i); } else { acc = acc - 1; }
          }
          out(acc);
        }
        """
        paths = self._paths(source)
        taken = next(p for p in paths if p.side == "taken")
        assert taken.has_unsafe_jsr

    def test_indirect_access_marks_mem_hazard(self):
        source = """
        int data[64];
        int idx[64];
        int n;
        void main() {
          int acc = 0;
          int i;
          for (i = 0; i < n; i = i + 1) {
            if (i % 2 == 0) { acc = acc + data[idx[i]]; } else { acc = acc - 1; }
          }
          out(acc);
        }
        """
        inputs = {"data": [1] * 64, "idx": list(range(64)), "n": [60]}
        paths = self._paths(source, inputs=inputs)
        taken = next(p for p in paths if p.side == "taken")
        assert taken.mem_hazard


class TestImpactBaseline:
    def _env(self, **overrides):
        env = {
            "dep_height": 4.0, "dep_height_max": 8.0,
            "num_ops": 5.0, "num_ops_max": 10.0,
            "exec_ratio": 0.5,
            "mem_hazard": False, "has_unsafe_jsr": False,
        }
        env.update(overrides)
        return env

    def test_equation_one_value(self):
        # 0.5 * 1.0 * (2.1 - 0.5 - 0.5) = 0.55
        assert impact_priority(self._env()) == pytest.approx(0.55)

    def test_hazard_penalty(self):
        clean = impact_priority(self._env())
        hazardous = impact_priority(self._env(mem_hazard=True))
        assert hazardous == pytest.approx(clean * 0.25)

    def test_unsafe_jsr_penalty(self):
        clean = impact_priority(self._env())
        jsr = impact_priority(self._env(has_unsafe_jsr=True))
        assert jsr == pytest.approx(clean * 0.25)

    def test_big_paths_penalized(self):
        small = impact_priority(self._env())
        big = impact_priority(self._env(dep_height=8.0, num_ops=10.0))
        assert big < small

    def test_hot_paths_favoured(self):
        cold = impact_priority(self._env(exec_ratio=0.1))
        hot = impact_priority(self._env(exec_ratio=0.9))
        assert hot > cold


class TestConversion:
    def test_semantics_preserved(self):
        module, _func, report = formation(DIAMOND, priority=lambda env: 1.0)
        assert report.regions_converted == 1
        plain = compile_source(DIAMOND)
        assert run_module(module).output_signature() \
            == run_module(plain).output_signature()

    def test_branch_removed_and_cmpp_added(self):
        module, func, report = formation(DIAMOND, priority=lambda env: 1.0)
        ops = [i.op for i in func.instructions()]
        assert Opcode.CMPP in ops
        # one branch left: the loop header's
        assert ops.count(Opcode.BR) == 1

    def test_guards_cover_both_arms(self):
        _module, func, _report = formation(DIAMOND, priority=lambda env: 1.0)
        guarded = [i for i in func.instructions() if i.guard is not None]
        assert len({i.guard for i in guarded}) == 2

    def test_nested_conversion_semantics(self):
        module, _func, report = formation(NESTED, priority=lambda env: 1.0)
        assert report.regions_converted == 2
        plain = compile_source(NESTED)
        assert run_module(module).output_signature() \
            == run_module(plain).output_signature()

    def test_triangle_conversion_semantics(self):
        module, _func, report = formation(TRIANGLE, priority=lambda env: 1.0)
        assert report.regions_converted == 1
        plain = compile_source(TRIANGLE)
        assert run_module(module).output_signature() \
            == run_module(plain).output_signature()

    def test_random_priorities_always_safe(self):
        """Any priority function yields a semantically equivalent
        program — the paper's 'the underlying algorithm ensures
        optimization legality'."""
        reference = run_module(compile_source(NESTED)).output_signature()
        for seed in range(8):
            rng = random.Random(seed)
            module, _func, _report = formation(
                NESTED, priority=lambda env: rng.uniform(-1, 2)
            )
            assert run_module(module).output_signature() == reference


class TestDecisionMechanics:
    def test_negative_priorities_block_conversion(self):
        _module, _func, report = formation(DIAMOND,
                                           priority=lambda env: -5.0)
        assert report.regions_converted == 0
        assert report.decisions[0].reason == "non-positive priority"

    def test_relative_threshold(self):
        def skewed(env):
            return 1.0 if env["num_ops"] > env["num_ops_mean"] else 0.01

        _module, _func, report = formation(DIAMOND, priority=skewed,
                                           rel_threshold=0.10)
        assert report.regions_converted == 0
        assert report.decisions[0].reason == "below relative threshold"

    def test_resource_budget_blocks_large_regions(self):
        _module, _func, report = formation(DIAMOND,
                                           priority=lambda env: 1.0,
                                           max_ops=1)
        assert report.regions_converted == 0
        assert report.decisions[0].reason == "resource budget exhausted"

    def test_report_counts(self):
        _module, _func, report = formation(NESTED, priority=lambda env: 1.0)
        assert report.regions_considered >= report.regions_converted
        assert report.ops_predicated > 0

    def test_priority_exceptions_treated_as_zero(self):
        def broken(env):
            raise ValueError("boom")

        _module, _func, report = formation(DIAMOND, priority=broken)
        assert report.regions_converted == 0


class ReferenceFormation(HyperblockFormation):
    """Hyperblock formation that rebuilds the predecessor map for every
    branch head it tries (:meth:`reference_match_hammock`)."""

    def run(self):
        changed = True
        while changed:
            changed = False
            for label in list(self.function.block_order):
                if label not in self.function.blocks:
                    continue
                if label in self._evaluated_heads:
                    continue
                region = self.reference_match_hammock(label)
                if region is None:
                    continue
                self._evaluated_heads.add(label)
                if self._evaluate_and_convert(label, *region):
                    self._evaluated_heads.clear()
                    changed = True
                    break
        return self.report

    def reference_match_hammock(self, head_label):
        head = self.function.blocks[head_label]
        term = head.instrs[-1]
        if term.op is not Opcode.BR:
            return None
        taken_target, fall_target = term.targets
        if taken_target == fall_target:
            return None
        preds = predecessors(self.function)
        taken = self._side_chain(taken_target, preds, head_label)
        fall = self._side_chain(fall_target, preds, head_label)
        if taken is None or fall is None:
            return None
        taken_chain, taken_join = taken
        fall_chain, fall_join = fall
        if taken_join != fall_join:
            return None
        join = taken_join
        if join == head_label:
            return None
        if not taken_chain and not fall_chain:
            return None
        if join == self.function.block_order[0]:
            return None
        return taken_chain, fall_chain, join


def test_one_predecessor_map_per_sweep_equals_one_per_head(monkeypatch):
    """Every formation over :func:`compile_every_program` gives the
    ``HyperblockReport`` and the IR text that
    :class:`ReferenceFormation` gives on a clone, and every map a sweep
    hands ``_match_hammock`` is the function's current one."""
    reports = []
    run = HyperblockFormation.run
    match = HyperblockFormation._match_hammock

    def checked_match(self, head_label, preds):
        assert preds == predecessors(self.function)
        return match(self, head_label, preds)

    def checked_run(self):
        reference = ReferenceFormation(
            self.function.clone(), self.machine, self.profile,
            self.priority, rel_threshold=self.rel_threshold,
            max_ops=self.max_ops, max_chain_blocks=self.max_chain_blocks)
        expected = reference.run()
        report = run(self)
        assert report == expected, self.function.name
        assert str(self.function) == str(reference.function)
        reports.append(report)
        return report

    monkeypatch.setattr(HyperblockFormation, "run", checked_run)
    monkeypatch.setattr(HyperblockFormation, "_match_hammock", checked_match)
    compile_every_program()
    converted = [report.regions_converted for report in reports]
    refused = [report.regions_considered - report.regions_converted
               for report in reports]
    assert any(converted) and any(refused)
    assert sum(len(report.decisions) for report in reports) > 100


@pytest.mark.xfail(strict=True, reason=(
    "FunctionProfile.branch_accuracy is keyed by the instruction uids of "
    "prepared.module; compile_backend works on prepared.module.clone(), "
    "and Instr.copy hands out fresh uids, so every lookup in the pass "
    "falls back to 0.5 (ROADMAP, robustness: 57 of 57 lookups missed)"))
def test_branch_accuracy_reaches_the_pass():
    """Table 4's ``predict_product`` should carry the profiled
    predictability of the region's branch into a real compile, as it
    does when the pass runs on the profiled module itself."""
    from repro.passes.pipeline import (
        CompilerOptions,
        compile_backend,
        prepare,
    )

    biased = {"data": [10] * 64, "n": [60]}  # the branch is always taken
    seen = []

    def spy(env):
        seen.append(env["predict_product"])
        return -1.0

    formation(DIAMOND, priority=spy, inputs=biased)
    assert seen and min(seen) > 0.9  # the pass on the profiled module

    seen.clear()
    prepared = prepare(compile_source(DIAMOND), biased,
                       CompilerOptions(hyperblock_priority=spy))
    compile_backend(prepared)
    assert seen and min(seen) > 0.9  # the same pass behind the clone
