"""Application-specific heuristics (Sections 5.4.1, 6.1.1, 7.2.1).

Training on a single benchmark produces a *specialized* priority
function — the paper's "advanced form of feedback directed
optimization".  The result records the train-data and novel-data
speedups (the dark and light bars of Figures 4, 9 and 13) plus the
fitness-over-generations curve (Figures 5, 10 and 14).
"""

from __future__ import annotations

from repro.gp.engine import GenerationStats, GPEngine, GPParams
from repro.gp.genome import expression_text
from repro.gp.nodes import Node
from repro.metaopt.harness import (
    CaseStudy,
    EvaluationHarness,
    EvaluatorProtocol,
)


class SpecializationResult:
    """Outcome of one per-benchmark evolution."""

    def __init__(self, benchmark: str, best_tree: Node,
                 train_speedup: float, novel_speedup: float,
                 history: list[GenerationStats], evaluations: int,
                 baseline_cycles_train: int,
                 best_cycles_train: int) -> None:
        self.benchmark = benchmark
        self.best_tree = best_tree
        self.train_speedup = train_speedup
        self.novel_speedup = novel_speedup
        self.history = history
        self.evaluations = evaluations
        self.baseline_cycles_train = baseline_cycles_train
        self.best_cycles_train = best_cycles_train

    @property
    def best_expression(self) -> str:
        return expression_text(self.best_tree)

    def fitness_curve(self) -> list[float]:
        return [stats.best_fitness for stats in self.history]


def build_specialize_engine(
    case: CaseStudy,
    benchmark: str,
    params: GPParams,
    evaluator: EvaluatorProtocol,
    seed_baseline: bool = True,
    extra_seeds: tuple[Node, ...] = (),
) -> GPEngine:
    """The GP engine of a specialization campaign, not yet run.

    ``evaluator`` drives the GP loop: an :class:`EvaluationHarness`
    itself, or any backend of :func:`~repro.metaopt.harness.
    make_evaluator`; :func:`finalize_specialization` re-scores on the
    harness.  Stepping this engine yourself (checkpointing between
    generations) is what :class:`repro.experiments.ExperimentRunner`
    does.  ``extra_seeds`` joins the initial population after the
    baseline — an autopilot campaign seeds the incumbent champion here.
    """
    seeds = (case.baseline_tree(),) if seed_baseline else ()
    seeds = seeds + tuple(extra_seeds)
    return GPEngine(
        pset=case.pset,
        evaluator=evaluator,
        benchmarks=(benchmark,),
        params=params,
        seed_trees=seeds,
    )


def finalize_specialization(
    harness: EvaluationHarness,
    benchmark: str,
    result,
) -> SpecializationResult:
    """Score the evolved champion on train and novel data.

    ``result`` is the :class:`~repro.gp.engine.GPResult` of a finished
    specialize engine.  Re-scores always run on ``harness`` (the serial
    reference path), so parallel and resumed runs finalize identically.
    """
    best = result.best.tree
    return SpecializationResult(
        benchmark=benchmark,
        best_tree=best,
        train_speedup=harness.speedup(best, benchmark, "train"),
        novel_speedup=harness.speedup(best, benchmark, "novel"),
        history=result.history,
        evaluations=result.evaluations,
        baseline_cycles_train=harness.baseline_result(benchmark).cycles,
        best_cycles_train=harness.simulate(best, benchmark).cycles,
    )
