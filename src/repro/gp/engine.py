"""The generational GP loop (Figure 2, parameters from Table 2).

The engine is deliberately generic: it knows nothing about compilers.
It is handed a *fitness evaluator* — an object whose ``evaluate_batch``
maps a list of ``(individual, benchmark_name)`` jobs to their speedups,
in job order (:class:`repro.metaopt.harness.EvaluatorProtocol`) — and
evolves expressions that maximize the average speedup across the
benchmark set active in each generation.  Each generation ships every
uncached pair in one batch.  The Meta Optimization harness
(:class:`repro.metaopt.harness.EvaluationHarness`) is such an
evaluator, compiling and simulating benchmarks with the candidate
priority function installed; the process pool and the fleet spread
its work.

Paper parameters (Table 2), kept as defaults:

============================  =======================================
Population size               400 expressions
Number of generations         50
Generational replacement      22% of the population
Mutation rate                 5%
Tournament size               7
Elitism                       best expression guaranteed survival
Fitness                       average speedup over the baseline
============================  =======================================

Fitness evaluations are memoized per ``(expression, benchmark)`` because
they are costly — the paper notes the same ("Our system memoizes
benchmark fitnesses").

The loop is *resumable*: :meth:`GPEngine.step` advances exactly one
generation, and :meth:`GPEngine.state_dict` /
:meth:`GPEngine.restore_state` serialize everything the remaining
generations depend on (population, RNG state, fitness memo, DSS state,
history).  A run checkpointed after generation *k* and restored into a
fresh engine continues bit-identically to the run that never stopped —
the substrate for :mod:`repro.experiments`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.gp.generate import PrimitiveSet
from repro.gp.genome import genome_ops_for
from repro.gp.nodes import Node
from repro.gp.select import Individual, best_of, tournament

if TYPE_CHECKING:
    from repro.gp.dss import DSSState
    from repro.metaopt.harness import EvaluatorProtocol


@dataclass(frozen=True)
class GPParams:
    """Knobs of the evolutionary search; defaults follow Table 2."""

    population_size: int = 400
    generations: int = 50
    replacement_fraction: float = 0.22
    mutation_rate: float = 0.05
    tournament_size: int = 7
    elitism: bool = True
    max_tree_depth: int = 17
    init_min_depth: int = 2
    init_max_depth: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 < self.replacement_fraction <= 1.0:
            raise ValueError("replacement_fraction must be in (0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")


@dataclass(frozen=True)
class GenerationStats:
    """Progress record for one generation (feeds Figures 5, 10, 14).

    Frozen: a history list is shared, not deep-copied, by
    :meth:`GPEngine.state_dict` and :meth:`GPEngine.restore_state`."""

    generation: int
    subset: tuple[str, ...]
    best_fitness: float
    mean_fitness: float
    best_size: int
    best_expression: str
    baseline_rank: int | None = None
    #: structurally distinct expressions in the population — the
    #: diversity measure behind the paper's inbreeding observation
    #: ("the population soon becomes inbred with copies of the top
    #: expression", Section 7.2.1)
    unique_structures: int = 0
    mean_size: float = 0.0


class GPResult:
    """Outcome of a run: the champion and the full evolution history."""

    def __init__(self, best: Individual, history: list[GenerationStats],
                 population: list[Individual], evaluations: int) -> None:
        self.best = best
        self.history = history
        self.population = population
        self.evaluations = evaluations

    @property
    def best_tree(self) -> Node:
        return self.best.tree

    def fitness_curve(self) -> list[float]:
        """Best fitness per generation — the y-axis of Figures 5/10/14."""
        return [stats.best_fitness for stats in self.history]


def _timed(registry, name: str, fn, *args):
    """Call ``fn(*args)``, timing it into ``registry``'s histogram
    ``name`` when metrics are enabled (plain call when disabled)."""
    if registry is None:
        return fn(*args)
    start = time.perf_counter()
    result = fn(*args)
    registry.observe(name, time.perf_counter() - start)
    return result


class GPEngine:
    """Drives the evolutionary search of Figure 2."""

    def __init__(
        self,
        pset: PrimitiveSet,
        evaluator: EvaluatorProtocol,
        benchmarks: tuple[str, ...],
        params: GPParams | None = None,
        seed_trees: tuple[Node, ...] = (),
        dss: DSSState | None = None,
        on_generation: Callable[[GenerationStats], None] | None = None,
        genome_ops=None,
    ) -> None:
        if not callable(getattr(evaluator, "evaluate_batch", None)):
            raise TypeError(
                f"{type(evaluator).__name__} has no evaluate_batch: the "
                "engine needs an EvaluatorProtocol evaluator")
        self.pset = pset
        self.evaluator = evaluator
        self.benchmarks = tuple(benchmarks)
        if not self.benchmarks:
            raise ValueError("need at least one benchmark")
        self.params = params or GPParams()
        self.seed_trees = tuple(seed_trees)
        self.dss = dss
        self.on_generation = on_generation
        #: Genome strategy (trees vs flag vectors, docs/CASES.md);
        #: resolved from the pset when not supplied.  The tree strategy
        #: reproduces the historical operator calls exactly, keeping
        #: RNG streams — and therefore checkpoints — byte-identical.
        self.genome_ops = genome_ops or genome_ops_for(pset)
        self.rng = random.Random(self.params.seed)
        self.generator = self.genome_ops.make_generator(self.rng)
        self._memo: dict[tuple, float] = {}
        self.evaluations = 0
        #: lazily built by the first :meth:`step` (or restored from a
        #: checkpoint); between steps it holds the population the next
        #: generation will evaluate.
        self.population: list[Individual] | None = None
        self.generation = 0
        self.history: list[GenerationStats] = []

    # -- fitness --------------------------------------------------------
    def _assign_fitness(
        self, population: list[Individual], subset: tuple[str, ...]
    ) -> tuple[dict[str, float], int]:
        """Evaluate the population on ``subset``.

        Every uncached, structurally distinct ``(individual,
        benchmark)`` job goes to the evaluator in one ``evaluate_batch``
        call, which fills the memo.  Returns the per-benchmark
        population-average speedups (for DSS difficulty updates) and
        the number of structurally distinct individuals."""
        memo = self._memo
        tree_keys = [individual.key for individual in population]
        pending: dict[tuple, tuple[Individual, str]] = {}
        for individual, tree_key in zip(population, tree_keys):
            for name in subset:
                key = (tree_key, name)
                if key not in memo and key not in pending:
                    pending[key] = (individual, name)
        if pending:
            values = self.evaluator.evaluate_batch(list(pending.values()))
            for key, value in zip(pending, values):
                memo[key] = float(value)
            self.evaluations += len(pending)
        per_benchmark_totals = {name: 0.0 for name in subset}
        for individual, tree_key in zip(population, tree_keys):
            speedups = [memo[(tree_key, name)] for name in subset]
            individual.fitness = sum(speedups) / len(speedups)
            individual.evaluations += len(subset)
            for name, value in zip(subset, speedups):
                per_benchmark_totals[name] += value
        count = len(population)
        means = {name: total / count
                 for name, total in per_benchmark_totals.items()}
        return means, len(set(tree_keys))

    # -- population construction ----------------------------------------
    def initial_population(self) -> list[Individual]:
        """Seeds (the compiler writer's best guess) + random expressions."""
        population: list[Individual] = [
            Individual(tree=tree.copy(), origin="seed") for tree in self.seed_trees
        ]
        needed = self.params.population_size - len(population)
        if needed < 0:
            raise ValueError("more seeds than population_size")
        random_trees = self.generator.ramped_half_and_half(
            needed,
            min_depth=self.params.init_min_depth,
            max_depth=self.params.init_max_depth,
        )
        population.extend(Individual(tree=tree) for tree in random_trees)
        return population

    def _offspring(self, population: list[Individual]) -> Individual:
        """One new expression: crossover of tournament winners, with a
        ``mutation_rate`` chance of an additional mutation."""
        registry = obs.metrics()
        mother = tournament(population, self.rng, self.params.tournament_size)
        father = tournament(population, self.rng, self.params.tournament_size)
        child_tree, _ = _timed(registry, "gp.crossover_seconds",
                               self.genome_ops.crossover,
                               mother.tree, father.tree, self.rng,
                               self.params.max_tree_depth)
        if registry is not None:
            registry.inc("gp.crossovers")
        origin = "crossover"
        if self.rng.random() < self.params.mutation_rate:
            child_tree = _timed(registry, "gp.mutation_seconds",
                                self.genome_ops.mutate,
                                child_tree, self.generator, self.rng,
                                self.params.max_tree_depth)
            origin = "mutation"
        child = Individual(tree=child_tree, origin=origin)
        # Anti-clone guard: crossover between near-identical parents (a
        # common state once a small population converges) can reproduce
        # a parent exactly; force a mutation so replacement always
        # injects new genetic material.
        if child.key == mother.key or child.key == father.key:
            child = Individual(
                tree=_timed(registry, "gp.mutation_seconds",
                            self.genome_ops.mutate,
                            child_tree, self.generator, self.rng,
                            self.params.max_tree_depth),
                origin="mutation")
        if registry is not None and child.origin == "mutation":
            registry.inc("gp.mutations")
        return child

    # -- main loop --------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every generation has been evaluated."""
        return self.generation >= self.params.generations

    def step(self) -> GenerationStats:
        """Advance the evolution by exactly one generation.

        Evaluates the current population (on the DSS subset when DSS is
        active), records stats, and — unless this was the final
        generation — breeds the next population.  The engine is in a
        checkpointable state between any two calls: serializing with
        :meth:`state_dict` here and restoring later continues the run
        bit-identically.
        """
        if self.done:
            raise RuntimeError("evolution already finished")
        if self.population is None:
            self.population = self.initial_population()
        population = self.population
        registry = obs.metrics()

        with obs.span("engine:generation", generation=self.generation):
            if self.dss is not None:
                subset = tuple(self.dss.select_subset())
            else:
                subset = self.benchmarks
            evaluations_before = self.evaluations
            eval_start = time.perf_counter()
            with obs.span("engine:evaluation", generation=self.generation,
                          benchmarks=len(subset)):
                bench_means, unique_structures = self._assign_fitness(
                    population, subset)
            if registry is not None:
                registry.observe("gp.eval_seconds",
                                 time.perf_counter() - eval_start)
                registry.inc("gp.evaluations",
                             self.evaluations - evaluations_before)
            if self.dss is not None:
                self.dss.record_results(bench_means)

            champion = best_of(population)
            stats = GenerationStats(
                generation=self.generation,
                subset=subset,
                best_fitness=champion.fitness or 0.0,
                mean_fitness=sum(ind.fitness or 0.0 for ind in population)
                / len(population),
                best_size=champion.size,
                best_expression=champion.text,
                baseline_rank=self._baseline_rank(population),
                unique_structures=unique_structures,
                mean_size=sum(ind.size for ind in population)
                / len(population),
            )
            self.history.append(stats)
            if registry is not None:
                registry.set_gauge("gp.generation", self.generation)
                registry.set_gauge("gp.best_fitness", stats.best_fitness)
                registry.set_gauge("gp.unique_structures",
                                   stats.unique_structures)
                registry.set_gauge("gp.population_size", len(population))
                registry.set_gauge("gp.memo_size", len(self._memo))
                registry.set_gauge("gp.dss_subset_size", len(subset))
            if self.on_generation is not None:
                self.on_generation(stats)

            self.generation += 1
            if not self.done:
                breed_start = time.perf_counter()
                with obs.span("engine:breed", generation=stats.generation):
                    self.population = self._next_generation(
                        population, champion)
                if registry is not None:
                    registry.observe("gp.breed_seconds",
                                     time.perf_counter() - breed_start)
        return stats

    def result(self) -> GPResult:
        """The champion and history of the generations run so far."""
        if self.population is None:
            raise RuntimeError("evolution has not started")
        return GPResult(
            best=best_of(self.population),
            history=self.history,
            population=self.population,
            evaluations=self.evaluations,
        )

    def run(self) -> GPResult:
        while not self.done:
            self.step()
        if self.population is None:  # degenerate generations <= 0
            self.population = self.initial_population()
        return self.result()

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """Everything the remaining generations depend on, as picklable
        plain data.  Trees travel as s-expression text
        (``parse(unparse(t))`` is structurally exact, so memo keys and
        noise seeds match bit-for-bit after a round-trip)."""
        return {
            "version": 1,
            "generation": self.generation,
            "evaluations": self.evaluations,
            "rng_state": self.rng.getstate(),
            "memo": dict(self._memo),
            "population": None if self.population is None else [
                {
                    "tree": ind.text,
                    "fitness": ind.fitness,
                    "evaluations": ind.evaluations,
                    "origin": ind.origin,
                }
                for ind in self.population
            ],
            "history": list(self.history),
            "dss": None if self.dss is None else self.dss.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this engine.

        The engine must have been constructed with the same pset,
        params, benchmarks, seeds, and evaluator configuration as the
        one that produced the snapshot; only the mutable run state is
        carried by the snapshot itself.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported engine state version {state.get('version')!r}")
        self.generation = state["generation"]
        self.evaluations = state["evaluations"]
        self.rng.setstate(state["rng_state"])
        self._memo = dict(state["memo"])
        if state["population"] is None:
            self.population = None
        else:
            self.population = [
                Individual(
                    tree=self.genome_ops.parse(entry["tree"]),
                    fitness=entry["fitness"],
                    evaluations=entry["evaluations"],
                    origin=entry["origin"],
                )
                for entry in state["population"]
            ]
        self.history = list(state["history"])
        if state["dss"] is not None:
            if self.dss is None:
                raise ValueError("snapshot carries DSS state but this "
                                 "engine has no DSSState attached")
            self.dss.restore_state(state["dss"])

    def _next_generation(
        self, population: list[Individual], champion: Individual
    ) -> list[Individual]:
        """Randomly replace ``replacement_fraction`` of the population
        with crossover offspring; the champion is never replaced."""
        next_population = list(population)
        replace_count = max(
            1, round(self.params.replacement_fraction * len(population))
        )
        # By identity: ``list.index`` would compare the individuals
        # ahead of it field by field, trees included.  No earlier one
        # equals it, since ``best_of`` keeps the first of equals.
        champion_index = next(index for index, individual
                              in enumerate(population)
                              if individual is champion)
        candidates = [
            index
            for index in range(len(population))
            if not (self.params.elitism and index == champion_index)
        ]
        replace_count = min(replace_count, len(candidates))
        for index in self.rng.sample(candidates, replace_count):
            next_population[index] = self._offspring(population)
        return next_population

    def _baseline_rank(self, population: list[Individual]) -> int | None:
        """1-based fitness rank of the seed expression, if it survives.

        The paper observes that for hyperblock formation and prefetching
        the seed is "quickly obscured and weeded out", while for
        register allocation it survives several generations; this
        statistic lets experiments verify that claim.
        """
        def fitness_of(ind: Individual) -> float:
            return ind.fitness if ind.fitness is not None else -1.0

        best_seed = None
        best_seed_position = -1
        for position, individual in enumerate(population):
            if individual.origin != "seed":
                continue
            if best_seed is None or fitness_of(individual) > fitness_of(best_seed):
                best_seed = individual
                best_seed_position = position
        if best_seed is None:
            return None
        # Rank = how many individuals sort ahead of the best seed in a
        # stable descending sort: strictly fitter ones, plus equal-
        # fitness ones appearing earlier in population order.
        seed_fitness = fitness_of(best_seed)
        rank = 0
        for position, individual in enumerate(population):
            value = fitness_of(individual)
            if value > seed_fitness or (
                value == seed_fitness and position < best_seed_position
            ):
                rank += 1
        return rank + 1
