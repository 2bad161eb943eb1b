"""General-purpose heuristics (Sections 5.4.2, 6.1.2, 7.2.2).

Evolving over a *training set* of benchmarks with dynamic subset
selection yields one priority function intended to replace the
compiler's stock heuristic.  Cross-validation applies that function to
an unrelated *test set* — the paper's measure of generality (Figures
7, 12 and 16, the latter two on two target architectures).
"""

from __future__ import annotations

from repro.gp.dss import DSSState
from repro.gp.engine import GenerationStats, GPEngine, GPParams
from repro.gp.genome import expression_text
from repro.gp.nodes import Node
from repro.metaopt.harness import (
    CaseStudy,
    EvaluationHarness,
    EvaluatorProtocol,
)
from repro.metaopt.settings import EvalSettings


class BenchmarkScore:
    def __init__(self, benchmark: str, train_speedup: float,
                 novel_speedup: float) -> None:
        self.benchmark = benchmark
        self.train_speedup = train_speedup
        self.novel_speedup = novel_speedup


class GeneralizationResult:
    """Outcome of one DSS multi-benchmark evolution."""

    def __init__(self, best_tree: Node, training: list[BenchmarkScore],
                 history: list[GenerationStats], evaluations: int) -> None:
        self.best_tree = best_tree
        self.training = training
        self.history = history
        self.evaluations = evaluations

    @property
    def best_expression(self) -> str:
        return expression_text(self.best_tree)

    def average_train_speedup(self) -> float:
        """Mean train-data speedup across the training benchmarks.

        Raises :class:`ValueError` when no training scores were
        recorded (the documented contract — previously this surfaced as
        a bare ``ZeroDivisionError``).
        """
        return _mean([s.train_speedup for s in self.training],
                     "GeneralizationResult.training")

    def average_novel_speedup(self) -> float:
        """Mean novel-data speedup; raises :class:`ValueError` when no
        training scores were recorded."""
        return _mean([s.novel_speedup for s in self.training],
                     "GeneralizationResult.training")

    def fitness_curve(self) -> list[float]:
        return [stats.best_fitness for stats in self.history]


def _mean(values: list[float], what: str) -> float:
    if not values:
        raise ValueError(
            f"cannot average over an empty {what} list — the run "
            "recorded no benchmark scores")
    return sum(values) / len(values)


def build_generalize_engine(
    case: CaseStudy,
    training_set: tuple[str, ...],
    params: GPParams,
    evaluator: EvaluatorProtocol,
    subset_size: int | None = None,
    seed_baseline: bool = True,
    extra_seeds: tuple = (),
) -> GPEngine:
    """The DSS-driven GP engine of a generalization campaign, not yet
    run; ``evaluator`` drives it, as in
    :func:`~repro.metaopt.specialize.build_specialize_engine`.
    Stepping it yourself (checkpointing between generations, including
    the attached :class:`~repro.gp.dss.DSSState`) is what
    :class:`repro.experiments.ExperimentRunner` does."""
    if not training_set:
        raise ValueError("training set must not be empty")
    if subset_size is None:
        subset_size = max(1, min(len(training_set), len(training_set) // 2 + 1))

    import random as _random

    dss = DSSState(
        benchmarks=tuple(training_set),
        subset_size=subset_size,
        rng=_random.Random(params.seed + 10_007),
    )
    seeds = (case.baseline_tree(),) if seed_baseline else ()
    seeds = seeds + tuple(extra_seeds)
    return GPEngine(
        pset=case.pset,
        evaluator=evaluator,
        benchmarks=tuple(training_set),
        params=params,
        seed_trees=seeds,
        dss=dss,
    )


def finalize_generalization(
    case: CaseStudy,
    harness: EvaluationHarness,
    training_set: tuple[str, ...],
    result,
    seed_baseline: bool = True,
) -> GeneralizationResult:
    """Re-rank the final population on the full training set and score
    the winner.

    With DSS each individual's last fitness reflects only its last
    subset, so the top slice of the population (plus the baseline, when
    seeded) is re-scored on every training benchmark.  The baseline
    always competes here, so the champion is never worse than the stock
    heuristic on the training suite.  Re-scores run on ``harness`` (the
    serial reference path), so parallel and resumed runs finalize
    identically.
    """
    best_tree = None
    best_score = float("-inf")
    candidates = {result.best.key: result.best.tree}
    if seed_baseline:
        baseline = case.baseline_tree()
        candidates.setdefault(baseline.structural_key(), baseline)
    ranked = sorted(
        result.population,
        key=lambda ind: ind.fitness if ind.fitness is not None else -1.0,
        reverse=True,
    )
    for individual in ranked[: max(3, len(ranked) // 20)]:
        candidates.setdefault(individual.key, individual.tree)
    for tree in candidates.values():
        score = sum(
            harness.speedup(tree, benchmark, "train")
            for benchmark in training_set
        ) / len(training_set)
        if score > best_score:
            best_score = score
            best_tree = tree

    training_scores = [
        BenchmarkScore(
            benchmark=benchmark,
            train_speedup=harness.speedup(best_tree, benchmark, "train"),
            novel_speedup=harness.speedup(best_tree, benchmark, "novel"),
        )
        for benchmark in training_set
    ]
    return GeneralizationResult(
        best_tree=best_tree,
        training=training_scores,
        history=result.history,
        evaluations=result.evaluations,
    )


class CrossValidationResult:
    """Best general-purpose function applied to an unseen test set."""

    def __init__(self, scores: list[BenchmarkScore],
                 machine_name: str) -> None:
        self.scores = scores
        self.machine_name = machine_name

    def average_train_speedup(self) -> float:
        """Raises :class:`ValueError` on an empty test set (same
        contract as :class:`GeneralizationResult`)."""
        return _mean([s.train_speedup for s in self.scores],
                     "CrossValidationResult.scores")

    def average_novel_speedup(self) -> float:
        return _mean([s.novel_speedup for s in self.scores],
                     "CrossValidationResult.scores")


def cross_validate(
    case: CaseStudy,
    tree: Node,
    test_set: tuple[str, ...],
    harness: EvaluationHarness | None = None,
    settings: "EvalSettings | None" = None,
) -> CrossValidationResult:
    """Apply an evolved priority function to benchmarks it never saw.

    Pass a ``case`` built for a different machine to reproduce the
    two-architecture variants of Figures 12 and 16.
    """
    harness = harness or EvaluationHarness(case, settings)
    scores = [
        BenchmarkScore(
            benchmark=benchmark,
            train_speedup=harness.speedup(tree, benchmark, "train"),
            novel_speedup=harness.speedup(tree, benchmark, "novel"),
        )
        for benchmark in test_set
    ]
    return CrossValidationResult(scores=scores,
                                 machine_name=case.machine.name)
