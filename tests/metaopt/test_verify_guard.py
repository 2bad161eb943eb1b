"""The harness's differential guard (``verify_outputs=True``).

A candidate priority function can only change *performance*, never
*meaning* — unless the backend miscompiles.  With the guard on, every
fresh simulation is checked against the functional interpreter;
miscompiling candidates get worst-case fitness (0.0) and their results
are never persisted to the fitness cache.
"""

import pytest

from repro.machine import sim as sim_mod
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings

BENCHMARK = "codrle4"


@pytest.fixture
def corrupted_simulator(monkeypatch):
    original = sim_mod.Simulator.run

    def corrupted(self, entry="main"):
        result = original(self, entry)
        result.outputs = list(result.outputs) + [424242]
        return result

    monkeypatch.setattr(sim_mod.Simulator, "run", corrupted)


class TestGuard:
    def test_clean_run_unaffected(self):
        guarded = EvaluationHarness(case_study("hyperblock"),
                                    EvalSettings(verify_outputs=True))
        unguarded = EvaluationHarness(case_study("hyperblock"))
        tree = guarded.case.baseline_tree()
        assert guarded.speedup(tree, BENCHMARK) == \
            unguarded.speedup(tree, BENCHMARK)
        assert guarded.stats()["divergences"] == 0

    def test_divergence_zeroes_fitness(self, corrupted_simulator):
        harness = EvaluationHarness(case_study("hyperblock"),
                                    EvalSettings(verify_outputs=True))
        tree = harness.case.baseline_tree()
        assert harness.speedup(tree, BENCHMARK) == 0.0
        assert harness.stats()["divergences"] > 0
        benchmark, dataset, divergence = harness.divergences[0]
        assert benchmark == BENCHMARK
        assert dataset == "train"
        assert divergence.channel == "out"

    def test_guard_off_misses_the_miscompile(self, corrupted_simulator):
        harness = EvaluationHarness(case_study("hyperblock"))
        tree = harness.case.baseline_tree()
        # without the guard the wrong-answer binary is scored normally
        assert harness.speedup(tree, BENCHMARK) > 0.0
        assert "divergences" not in harness.stats()

    def test_diverged_results_not_persisted(self, corrupted_simulator,
                                            tmp_path):
        harness = EvaluationHarness(
            case_study("hyperblock"),
            EvalSettings(verify_outputs=True, fitness_cache_dir=tmp_path))
        harness.speedup(harness.case.baseline_tree(), BENCHMARK)
        assert harness.fitness_cache.stores == 0
        assert list(FitnessCache(tmp_path).scan()) == []

    def test_clean_results_are_persisted(self, tmp_path):
        harness = EvaluationHarness(
            case_study("hyperblock"),
            EvalSettings(verify_outputs=True, fitness_cache_dir=tmp_path))
        harness.speedup(harness.case.baseline_tree(), BENCHMARK)
        assert harness.fitness_cache.stores > 0
        assert list(FitnessCache(tmp_path).scan())


class TestCacheKeying:
    def test_verified_flag_partitions_the_cache(self, tmp_path):
        cache = FitnessCache(tmp_path)
        tree = case_study("hyperblock").baseline_tree()
        priority_key = ("tree",) + tree.structural_key()
        common = dict(case_name="hyperblock", machine=DEFAULT_EPIC,
                      noise_stddev=0.0, priority_key=priority_key,
                      benchmark=BENCHMARK, dataset="train")
        unverified = cache.result_key(**common)
        verified = cache.result_key(**common, verified=True)
        assert unverified is not None and verified is not None
        assert unverified != verified

    def test_guarded_harness_never_reads_unverified_entries(self, tmp_path):
        """An unverified cache entry written by a guardless run must not
        satisfy a guarded run's lookup."""
        unguarded = EvaluationHarness(
            case_study("hyperblock"),
            EvalSettings(fitness_cache_dir=tmp_path))
        tree = unguarded.case.baseline_tree()
        unguarded.speedup(tree, BENCHMARK)
        assert unguarded.fitness_cache.stores > 0

        guarded = EvaluationHarness(
            case_study("hyperblock"),
            EvalSettings(verify_outputs=True, fitness_cache_dir=tmp_path))
        guarded.speedup(tree, BENCHMARK)
        assert guarded.cache_hits == 0  # no cross-pollination
        # re-simulated and stored anew
        assert guarded.fitness_cache.stores > 0
