"""Ablation: GP search scale.

Section 9 concedes that "GP's success is dependent on parameters such
as population size and mutation rate".  This bench sweeps population
size on one specialization problem; larger populations explore more of
the space per generation and should never find worse champions (all
runs share the elitism floor of the seeded baseline).
"""

from conftest import emit, record_result, shared_harness
from repro.gp.engine import GPEngine, GPParams

BENCH = "g721encode"
POPULATIONS = (8, 16, 32)


def test_ablation_population_scale(benchmark):
    harness = shared_harness("hyperblock")

    def run():
        outcome = {}
        for population in POPULATIONS:
            engine = GPEngine(
                pset=harness.case.pset,
                evaluator=harness,
                benchmarks=(BENCH,),
                params=GPParams(population_size=population,
                                generations=8, seed=23),
                seed_trees=(harness.case.baseline_tree(),),
            )
            result = engine.run()
            outcome[population] = (result.best.fitness,
                                   engine.evaluations)
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Ablation (population scale) on {BENCH}:\n"
         + "\n".join(f"  pop {pop:3d}: best {fit:.4f} "
                     f"({evals} evaluations)"
                     for pop, (fit, evals) in outcome.items()))
    record_result("ablation_scale", {
        str(pop): [fit, evals] for pop, (fit, evals) in outcome.items()
    })

    fits = [fit for fit, _ in outcome.values()]
    evals = [count for _, count in outcome.values()]
    # Bigger populations spend more evaluations...
    assert evals == sorted(evals)
    # ...and all runs respect the seeded-baseline floor.
    assert all(fit >= 1.0 - 1e-9 for fit in fits)
