"""Evaluation harness: case-study configuration, caching, speedups."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.machine.descr import (
    DEFAULT_EPIC,
    ITANIUM_MACHINE,
    REGALLOC_MACHINE,
)
from repro.gp.parse import parse
from repro.gp.select import Individual
from repro.metaopt.harness import (
    EvaluationHarness,
    EvaluatorProtocol,
    case_study,
    make_evaluator,
)
from repro.metaopt.settings import EvalSettings
from repro.metaopt.priority import PriorityFunction


class TestCaseStudy:
    def test_hyperblock_config(self):
        case = case_study("hyperblock")
        assert case.machine is DEFAULT_EPIC
        assert case.options.prefetch is False
        assert case.hook == "hyperblock_priority"
        assert case.pset.result_type.value == "real"

    def test_regalloc_config(self):
        case = case_study("regalloc")
        assert case.machine is REGALLOC_MACHINE
        assert case.hook == "spill_priority"

    def test_prefetch_config(self):
        case = case_study("prefetch")
        assert case.machine is ITANIUM_MACHINE
        assert case.options.prefetch is True
        assert case.hook == "prefetch_priority"

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            case_study("loop-unrolling")

    def test_machine_override(self):
        case = case_study("hyperblock", machine=ITANIUM_MACHINE)
        assert case.machine is ITANIUM_MACHINE

    def test_options_for_installs_hook(self):
        case = case_study("hyperblock")
        marker = lambda env: 42.0
        options = case.options_for(marker)
        assert options.hyperblock_priority is marker
        # other hooks untouched
        assert options.prefetch_priority is case.options.prefetch_priority


class TestHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        return EvaluationHarness(case_study("hyperblock"))

    def test_baseline_speedup_is_one(self, harness):
        case = harness.case
        speedup = harness.speedup(case.baseline_tree(), "rawcaudio")
        assert speedup == pytest.approx(1.0)

    def test_prepared_cached(self, harness):
        first = harness.prepared("rawcaudio")
        second = harness.prepared("rawcaudio")
        assert first is second

    def test_simulation_memoized(self, harness):
        tree = harness.case.baseline_tree()
        before = harness.stats()["sims"]
        harness.simulate(tree, "rawcaudio")
        harness.simulate(tree, "rawcaudio")
        after = harness.stats()["sims"]
        assert after - before <= 1

    def test_structurally_equal_trees_share_memo(self, harness):
        before = harness.stats()["sims"]
        harness.simulate(harness.case.baseline_tree(), "rawcaudio")
        harness.simulate(harness.case.baseline_tree(), "rawcaudio")
        assert harness.stats()["sims"] - before <= 1

    def test_datasets_memoized_separately(self, harness):
        tree = harness.case.baseline_tree()
        train = harness.simulate(tree, "rawcaudio", "train")
        novel = harness.simulate(tree, "rawcaudio", "novel")
        assert train.cycles != novel.cycles

    def test_native_callables_accepted(self, harness):
        result = harness.simulate(lambda env: 1.0, "rawcaudio")
        assert result.cycles > 0

    def test_wrapped_priority_accepted(self, harness):
        fn = PriorityFunction(harness.case.baseline_tree())
        result = harness.simulate(fn, "rawcaudio")
        assert result.cycles \
            == harness.baseline_result("rawcaudio").cycles

    def test_evaluator_interface(self, harness):
        [speedup] = harness.evaluate_batch(
            [(Individual(tree=harness.case.baseline_tree()), "rawcaudio")])
        assert speedup == pytest.approx(1.0)

    def test_harness_is_the_serial_evaluator(self, harness):
        assert isinstance(harness, EvaluatorProtocol)
        assert make_evaluator(harness) is harness
        assert make_evaluator(harness, processes=1) is harness
        harness.close()  # nothing to release, and idempotent
        harness.close()

    def test_evaluate_batch_is_train_speedups_in_job_order(self, harness):
        pset = harness.case.pset
        trees = [parse(text, pset.bool_feature_set()) for text in (
            "(mul 2.0000 num_ops)", "(sub 1.0000 exec_ratio)")]
        trees.append(harness.case.baseline_tree())
        jobs = [(Individual(tree=tree), benchmark)
                for benchmark in ("rawcaudio", "codrle4") for tree in trees]
        fresh = EvaluationHarness(harness.case)
        assert fresh.evaluate_batch(jobs) == [
            harness.speedup(individual.tree, benchmark, "train")
            for individual, benchmark in jobs]

    def test_outputs_match_reference_interpreter(self, harness):
        from repro.frontend import compile_source
        from repro.ir.interp import Interpreter
        from repro.suite import get

        bench = get("rawcaudio")
        module = compile_source(bench.source, bench.name)
        interp = Interpreter(module)
        for name, values in bench.inputs("train").items():
            interp.set_global(name, values)
        ref = interp.run()
        result = harness.baseline_result("rawcaudio")
        assert result.output_signature() == ref.output_signature()


class TestNoisyHarness:
    def test_noise_changes_measurements_reproducibly(self):
        case = case_study("prefetch")
        noisy1 = EvaluationHarness(case, EvalSettings(noise_stddev=0.02))
        noisy2 = EvaluationHarness(case, EvalSettings(noise_stddev=0.02))
        tree = case.baseline_tree()
        first = noisy1.simulate(tree, "178.galgel").cycles
        second = noisy2.simulate(tree, "178.galgel").cycles
        assert first == second  # derived seed => reproducible

    def test_noise_distinct_across_candidates(self):
        case = case_study("prefetch")
        harness = EvaluationHarness(case, EvalSettings(noise_stddev=0.02))
        from repro.passes.prefetch import always_prefetch, never_prefetch

        a = harness.simulate(never_prefetch, "178.galgel").cycles
        b = harness.simulate(always_prefetch, "178.galgel").cycles
        assert a != b

    def test_native_noise_does_not_depend_on_evaluation_order(self):
        """Each order in its own interpreter: a fresh process is where a
        native's identity could depend on what was evaluated first."""

        def speedup(earlier):
            script = (
                "from repro.metaopt.harness import EvaluationHarness, "
                "case_study\n"
                "from repro.metaopt.settings import EvalSettings\n"
                "from repro.passes.prefetch import always_prefetch, "
                "never_prefetch\n"
                "harness = EvaluationHarness(case_study('prefetch'), "
                "EvalSettings(noise_stddev=0.01))\n"
                f"for priority in [{', '.join(earlier)}]:\n"
                "    harness.speedup(priority, '102.swim')\n"
                "print(repr(harness.speedup(never_prefetch, '102.swim')))\n")
            src = Path(repro.__file__).resolve().parents[1]
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=str(src)),
                check=True, capture_output=True, text=True, timeout=120)
            return float(done.stdout)

        assert speedup(()) == speedup(("always_prefetch",))


class TestInputsMemo:
    def test_each_dataset_is_generated_once_per_harness(self, monkeypatch):
        """A verified campaign prepares, simulates and runs the
        reference on both datasets; each (program, dataset) is
        generated once, and the shared lists are still the dataset
        after every simulation and interpreter run has read them."""
        from collections import Counter

        from repro.experiments import ExperimentConfig, run_experiment
        from repro.gp.engine import GPParams
        from repro.suite.registry import Benchmark, get as get_benchmark

        generated = Counter()
        inputs = Benchmark.inputs

        def counting(bench, dataset="train"):
            generated[bench.name, dataset] += 1
            return inputs(bench, dataset)

        monkeypatch.setattr(Benchmark, "inputs", counting)
        config = ExperimentConfig(
            mode="specialize", case="hyperblock", benchmark="codrle4",
            params=GPParams(population_size=4, generations=2, seed=1),
            verify_outputs=True)
        harness = EvaluationHarness(case_study(config.case),
                                    EvalSettings(verify_outputs=True))
        run_experiment(config, harness=harness)
        assert harness.stats()["sims"] > 1
        assert generated == {("codrle4", "train"): 1,
                             ("codrle4", "novel"): 1}
        monkeypatch.undo()
        for (name, dataset), memoized in harness._inputs_memo.items():
            assert memoized == get_benchmark(name).inputs(dataset)
