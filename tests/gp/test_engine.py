"""GP engine tests: Table 2 defaults, evolution progress, elitism,
memoization, seeding."""

import pytest

from repro.gp.dss import DSSState
from repro.gp.engine import GPEngine, GPParams
from repro.gp.generate import PrimitiveSet
from repro.gp.parse import parse

PSET = PrimitiveSet(real_features=("x", "y"))

GRID = [(float(i), float(j)) for i in range(4) for j in range(4)]


def regression_fitness(tree, benchmark):
    """Toy symbolic-regression fitness: approximate 2x + y."""
    error = 0.0
    for x, y in GRID:
        error += abs(tree.evaluate({"x": x, "y": y}) - (2 * x + y))
    return 1.0 / (1.0 + error)


def small_params(**overrides):
    defaults = dict(population_size=30, generations=10, seed=11)
    defaults.update(overrides)
    return GPParams(**defaults)


class TestParams:
    def test_paper_defaults(self):
        """Table 2's settings are the library defaults."""
        params = GPParams()
        assert params.population_size == 400
        assert params.generations == 50
        assert params.replacement_fraction == 0.22
        assert params.mutation_rate == 0.05
        assert params.tournament_size == 7
        assert params.elitism is True

    def test_validation(self):
        with pytest.raises(ValueError):
            GPParams(population_size=1)
        with pytest.raises(ValueError):
            GPParams(replacement_fraction=0.0)
        with pytest.raises(ValueError):
            GPParams(mutation_rate=1.5)
        with pytest.raises(ValueError):
            GPParams(tournament_size=0)


class TestEngine:
    def test_requires_benchmarks(self):
        with pytest.raises(ValueError):
            GPEngine(PSET, regression_fitness, benchmarks=())

    def test_initial_population_includes_seed(self):
        seed_tree = parse("(add x y)")
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(), seed_trees=(seed_tree,))
        population = engine.initial_population()
        assert len(population) == 30
        assert population[0].tree == seed_tree
        assert population[0].origin == "seed"
        assert all(ind.origin == "random" for ind in population[1:])

    def test_too_many_seeds_rejected(self):
        seeds = tuple(parse(f"{i}.0") for i in range(31))
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(), seed_trees=seeds)
        with pytest.raises(ValueError):
            engine.initial_population()

    def test_run_produces_history(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params())
        result = engine.run()
        assert len(result.history) == 10
        assert result.best.fitness is not None
        assert len(result.fitness_curve()) == 10

    def test_elitism_makes_best_fitness_monotone(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(seed=7))
        result = engine.run()
        curve = result.fitness_curve()
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_evolution_improves_over_initial(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=20, seed=5))
        result = engine.run()
        curve = result.fitness_curve()
        assert curve[-1] > curve[0]

    def test_seeded_baseline_never_lost(self):
        """With elitism, the final champion is at least as fit as the
        seed (the paper's guarantee that evolved heuristics match or
        beat the stock one on the training input)."""
        seed_tree = parse("(add (add x x) y)")  # the exact solution
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(), seed_trees=(seed_tree,))
        result = engine.run()
        assert result.best.fitness >= regression_fitness(seed_tree, "toy") \
            - 1e-12

    def test_memoization_avoids_reevaluation(self):
        calls = []

        def counting_fitness(tree, benchmark):
            calls.append(tree.structural_key())
            return regression_fitness(tree, benchmark)

        engine = GPEngine(PSET, counting_fitness, ("toy",),
                          small_params())
        engine.run()
        assert len(calls) == len(set(calls))
        assert engine.evaluations == len(calls)

    def test_deterministic_under_seed(self):
        results = []
        for _ in range(2):
            engine = GPEngine(PSET, regression_fitness, ("toy",),
                              small_params(seed=99))
            results.append(engine.run().fitness_curve())
        assert results[0] == results[1]

    def test_baseline_rank_reported_when_seeded(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(), seed_trees=(parse("(add x y)"),))
        result = engine.run()
        assert result.history[0].baseline_rank is not None

    def test_baseline_rank_none_without_seed(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params())
        result = engine.run()
        assert result.history[0].baseline_rank is None

    def test_on_generation_callback(self):
        seen = []
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=4),
                          on_generation=seen.append)
        engine.run()
        assert [s.generation for s in seen] == [0, 1, 2, 3]


class TestEngineWithDSS:
    def test_dss_subsets_drive_evaluation(self):
        benchmarks = ("b0", "b1", "b2", "b3")

        def per_bench_fitness(tree, benchmark):
            # b3 is 'hard': nothing scores well on it.
            base = regression_fitness(tree, benchmark)
            return base * (0.1 if benchmark == "b3" else 1.0)

        import random as _random

        dss = DSSState(benchmarks, subset_size=2, rng=_random.Random(1))
        engine = GPEngine(PSET, per_bench_fitness, benchmarks,
                          small_params(generations=8), dss=dss)
        result = engine.run()
        subsets = [set(stats.subset) for stats in result.history]
        assert all(len(s) == 2 for s in subsets)
        # multiple distinct subsets were visited
        assert len({frozenset(s) for s in subsets}) > 1

    def test_without_dss_full_set_used(self):
        benchmarks = ("b0", "b1")
        engine = GPEngine(PSET, regression_fitness, benchmarks,
                          small_params(generations=3))
        result = engine.run()
        assert all(stats.subset == benchmarks for stats in result.history)


class TestDiversityStats:
    def test_unique_structures_bounded_by_population(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=4))
        result = engine.run()
        for stats in result.history:
            assert 1 <= stats.unique_structures <= 30
            assert stats.mean_size >= 1.0

    def test_inbreeding_visible_over_time(self):
        """Replacement by crossover of tournament winners reduces (or
        at least never explodes) structural diversity — the paper's
        inbreeding observation."""
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=12, seed=2))
        result = engine.run()
        first = result.history[0].unique_structures
        last = result.history[-1].unique_structures
        assert last <= first + 5


class _BatchingFitness:
    """Callable evaluator that also exposes ``evaluate_batch`` and
    records how work arrives, for asserting the engine's generation
    batching."""

    def __init__(self):
        self.single_calls = 0
        #: per batch, the ``(structural_key, benchmark)`` pairs shipped
        self.batches = []

    @property
    def batch_sizes(self):
        return [len(batch) for batch in self.batches]

    def __call__(self, tree, benchmark):
        self.single_calls += 1
        return regression_fitness(tree, benchmark)

    def evaluate_batch(self, jobs):
        jobs = list(jobs)
        self.batches.append([(tree.structural_key(), benchmark)
                             for tree, benchmark in jobs])
        return [regression_fitness(tree, benchmark)
                for tree, benchmark in jobs]


class TestGenerationBatching:
    def test_uncached_pairs_arrive_in_one_batch(self):
        evaluator = _BatchingFitness()
        engine = GPEngine(PSET, evaluator, ("toy",),
                          small_params(generations=4))
        engine.run()
        # every fitness came through evaluate_batch, never pairwise
        assert evaluator.single_calls == 0
        assert evaluator.batch_sizes
        # generation 0 ships the whole population in one call
        assert evaluator.batch_sizes[0] <= 30
        assert evaluator.batch_sizes[0] >= 2
        # later generations only ship new (uncached) individuals
        assert all(size < 30 for size in evaluator.batch_sizes[1:])

    def test_batching_identical_to_pairwise(self):
        batched = GPEngine(PSET, _BatchingFitness(), ("toy",),
                           small_params(generations=6)).run()
        pairwise = GPEngine(PSET, regression_fitness, ("toy",),
                            small_params(generations=6)).run()
        assert batched.fitness_curve() == pairwise.fitness_curve()
        assert batched.best.tree == pairwise.best.tree
        assert batched.evaluations == pairwise.evaluations

    def test_batch_deduplicates_structural_twins(self):
        """The engine's memo is the only fitness dedupe — evaluators
        below it are plain transports — so it must never ship a pair
        twice: not within a batch, not across generations, not across
        a checkpoint round trip."""
        evaluator = _BatchingFitness()

        def build():
            return GPEngine(
                PSET, evaluator, ("toy", "toy2"),
                small_params(population_size=10, generations=6),
                seed_trees=(parse("(add x y)"),
                            parse("(add x y)")),
            )

        first = build()
        for _ in range(3):
            first.step()
        # two structurally identical seeds -> one evaluation each on
        # the two benchmarks
        assert evaluator.batch_sizes[0] == 18
        resumed = build()
        resumed.restore_state(first.state_dict())
        while not resumed.done:
            resumed.step()

        assert evaluator.single_calls == 0
        assert len(evaluator.batches) > 3
        dispatched = [pair for batch in evaluator.batches
                      for pair in batch]
        assert len(dispatched) == len(set(dispatched))


class TestSteppedCheckpointing:
    def test_step_matches_run(self):
        stepped = GPEngine(PSET, regression_fitness, ("toy",),
                           small_params(generations=6))
        while not stepped.done:
            stepped.step()
        monolithic = GPEngine(PSET, regression_fitness, ("toy",),
                              small_params(generations=6)).run()
        assert stepped.result().fitness_curve() == \
            monolithic.fitness_curve()
        assert stepped.result().best.tree == monolithic.best.tree

    def test_step_after_done_rejected(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=2))
        engine.run()
        with pytest.raises(RuntimeError):
            engine.step()

    @pytest.mark.parametrize("stop_at", [1, 4, 9])
    def test_state_round_trip_continues_identically(self, stop_at):
        reference = GPEngine(PSET, regression_fitness, ("toy",),
                             small_params()).run()

        first = GPEngine(PSET, regression_fitness, ("toy",),
                         small_params())
        for _ in range(stop_at):
            first.step()
        state = first.state_dict()

        second = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params())
        second.restore_state(state)
        resumed = second.run()
        assert resumed.fitness_curve() == reference.fitness_curve()
        assert resumed.best.tree == reference.best.tree
        assert resumed.evaluations == reference.evaluations

    def test_state_round_trip_with_dss(self):
        import random as _random

        benchmarks = ("b0", "b1", "b2", "b3")

        def build():
            dss = DSSState(benchmarks, subset_size=2,
                           rng=_random.Random(1))
            return GPEngine(PSET, regression_fitness, benchmarks,
                            small_params(generations=8), dss=dss)

        reference = build().run()
        first = build()
        for _ in range(3):
            first.step()
        second = build()
        second.restore_state(first.state_dict())
        resumed = second.run()
        assert [s.subset for s in resumed.history] == \
            [s.subset for s in reference.history]
        assert resumed.fitness_curve() == reference.fitness_curve()

    def test_state_is_picklable_and_detached(self):
        import pickle

        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params(generations=4))
        engine.step()
        state = pickle.loads(pickle.dumps(engine.state_dict()))
        engine.step()  # mutating the engine must not affect the snapshot
        fresh = GPEngine(PSET, regression_fitness, ("toy",),
                         small_params(generations=4))
        fresh.restore_state(state)
        assert fresh.generation == 1
        assert len(fresh.history) == 1

    def test_unsupported_state_version_rejected(self):
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params())
        with pytest.raises(ValueError):
            engine.restore_state({"version": 99})


class TestBaselineRankFast:
    def test_matches_quadratic_reference(self):
        import random

        from repro.gp.select import Individual

        rng = random.Random(5)
        trees = [parse("x"),
                 parse("y")]
        engine = GPEngine(PSET, regression_fitness, ("toy",),
                          small_params())
        for trial in range(200):
            population = []
            for index in range(rng.randrange(2, 12)):
                population.append(Individual(
                    tree=rng.choice(trees),
                    fitness=rng.choice([None, 0.0, 0.25, 0.5, 0.5, 1.0]),
                    origin=rng.choice(["seed", "random", "crossover"]),
                ))

            def reference(pop):
                seeds = [ind for ind in pop if ind.origin == "seed"]
                if not seeds:
                    return None
                ranked = sorted(
                    pop,
                    key=lambda ind: (ind.fitness
                                     if ind.fitness is not None else -1.0),
                    reverse=True,
                )
                return min(ranked.index(seed) for seed in seeds) + 1

            assert engine._baseline_rank(population) == reference(population)
