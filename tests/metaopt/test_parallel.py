"""Parallel fitness evaluation agrees with the sequential harness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gp.engine import GPEngine, GPParams
from repro.metaopt.harness import (
    EvaluationHarness,
    HarnessEvaluator,
    case_study,
    make_evaluator,
)
from repro.metaopt.parallel import ParallelEvaluator
from repro.metaopt.settings import EvalSettings


def pool(processes):
    return ParallelEvaluator(
        EvaluationHarness(case_study("hyperblock")), processes)


class TestParallelEvaluator:
    def test_invalid_process_count(self):
        with pytest.raises(ValueError):
            pool(0)

    def test_matches_sequential(self):
        case = case_study("hyperblock")
        sequential = EvaluationHarness(case)
        baseline = case.baseline_tree()
        with pool(2) as parallel:
            parallel_value = parallel.evaluate_batch(
                [(baseline, "codrle4")])[0]
        sequential_value = sequential.speedup(baseline, "codrle4")
        assert parallel_value == pytest.approx(sequential_value)

    def test_drives_gp_engine(self):
        case = case_study("hyperblock")
        with pool(2) as parallel:
            engine = GPEngine(
                pset=case.pset,
                evaluator=parallel,
                benchmarks=("codrle4",),
                params=GPParams(population_size=6, generations=2, seed=3),
                seed_trees=(case.baseline_tree(),),
            )
            result = engine.run()
        assert result.best.fitness >= 1.0 - 1e-9

    def test_serial_fallback_skips_pool(self):
        """``processes=1`` is the serial evaluator itself — there is
        no pool-shaped object around it."""
        case = case_study("hyperblock")
        baseline = case.baseline_tree()
        with make_evaluator("hyperblock", processes=1) as serial:
            assert isinstance(serial, HarnessEvaluator)
            value = serial.evaluate_batch([(baseline, "codrle4")])[0]
        sequential = EvaluationHarness(case).speedup(baseline, "codrle4")
        assert value == sequential

    def test_close_is_idempotent_and_restartable(self):
        case = case_study("hyperblock")
        baseline = case.baseline_tree()
        evaluator = pool(2)
        first = evaluator.evaluate_batch([(baseline, "codrle4")])[0]
        evaluator.close()
        evaluator.close()  # idempotent
        evaluator.close(force=True)
        # a fresh pool is built on demand after close()
        assert evaluator.evaluate_batch([(baseline, "codrle4")]) == [first]
        evaluator.close()


def _run_engine(evaluator, case, processes_label):
    engine = GPEngine(
        pset=case.pset,
        evaluator=evaluator,
        benchmarks=("codrle4",),
        params=GPParams(population_size=8, generations=3, seed=11),
        seed_trees=(case.baseline_tree(),),
    )
    result = engine.run()
    from repro.gp.parse import unparse

    return (result.fitness_curve(), unparse(result.best.tree),
            result.evaluations)


class TestParallelSerialEquivalence:
    """Batching and process fan-out must never change the evolution:
    the fitness curve and champion are bit-identical to the serial
    seed path for any worker count."""

    def test_processes_1_2_4_identical(self):
        case = case_study("hyperblock")
        reference = _run_engine(
            EvaluationHarness(case).evaluator("train"), case, "serial")
        for processes in (1, 2, 4):
            with make_evaluator("hyperblock",
                                processes=processes) as evaluator:
                outcome = _run_engine(evaluator, case, str(processes))
            assert outcome == reference, f"processes={processes} diverged"


class TestSerialCampaignImportsNoPool:
    def test_serial_evolve_never_imports_multiprocessing(self, tmp_path):
        """A serial campaign builds no pool and must not pay for the
        import (own interpreter: the test process has long since
        imported it)."""
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['evolve', 'hyperblock', 'codrle4', '--pop', '4',"
            " '--gens', '1', '--no-fitness-cache', '--json']) == 0\n"
            "assert 'multiprocessing' not in sys.modules\n")
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=str(src)),
                       check=True, capture_output=True, timeout=120)


class TestPersistentCacheIntegration:
    def test_second_run_zero_simulator_invocations(self, tmp_path):
        case = case_study("hyperblock")
        cache_dir = str(tmp_path / "fitness")

        settings = EvalSettings(fitness_cache_dir=cache_dir)

        with make_evaluator("hyperblock", settings, processes=1) as cold:
            cold_outcome = _run_engine(cold, case, "cold")
            assert cold.harness.sim_count > 0

        with make_evaluator("hyperblock", settings, processes=1) as warm:
            warm_outcome = _run_engine(warm, case, "warm")
            assert warm.harness.sim_count == 0
            assert warm.harness.compile_count == 0
        assert warm_outcome == cold_outcome

    def test_pool_workers_share_cache_with_serial(self, tmp_path):
        case = case_study("hyperblock")
        cache_dir = str(tmp_path / "fitness")
        settings = EvalSettings(fitness_cache_dir=cache_dir)
        with make_evaluator("hyperblock", settings, processes=2) as cold:
            cold_outcome = _run_engine(cold, case, "pool")
        with make_evaluator("hyperblock", settings, processes=1) as warm:
            warm_outcome = _run_engine(warm, case, "warm-serial")
            assert warm.harness.sim_count == 0
        assert warm_outcome == cold_outcome
