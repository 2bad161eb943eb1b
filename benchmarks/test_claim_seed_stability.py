"""Section 5.4.1's claim: "multiple reruns using different
initialization seeds reveal minuscule differences in performance.  It
might be a space in which there are many possible solutions associated
with a given fitness."

Three independent evolutions (different GP seeds) on one benchmark
should land within a small band of each other.
"""

from conftest import emit, gp_params, record_result, shared_harness
from repro.gp.engine import GPEngine, GPParams

BENCH = "rawcaudio"
SEEDS = (11, 57, 91)


def test_claim_seed_stability(benchmark):
    harness = shared_harness("hyperblock")

    def run():
        finals = {}
        for seed in SEEDS:
            base = gp_params(seed=seed)
            engine = GPEngine(
                pset=harness.case.pset,
                evaluator=harness,
                benchmarks=(BENCH,),
                params=base,
                seed_trees=(harness.case.baseline_tree(),),
            )
            finals[seed] = engine.run().best.fitness
        return finals

    finals = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"Seed-stability claim on {BENCH}: "
         + ", ".join(f"seed {s}: {f:.4f}" for s, f in finals.items()))
    record_result("claim_seed_stability", finals)

    values = list(finals.values())
    assert max(values) - min(values) <= 0.05, finals
