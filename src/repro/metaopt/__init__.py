"""Meta Optimization: GP search over compiler priority functions.

The package wires the GP engine (:mod:`repro.gp`) around the compiler
(:mod:`repro.passes`) exactly as Figure 2 describes: candidates are
installed into a priority-function hook, benchmarks are compiled and
simulated, and fitness is the speedup over the stock heuristic.
"""

from repro.metaopt.baselines import (
    BASELINE_TREES,
    CHOW_HENNESSY_TEXT,
    IMPACT_HYPERBLOCK_TEXT,
    ORC_PREFETCH_TEXT,
    chow_hennessy_tree,
    impact_hyperblock_tree,
    orc_prefetch_tree,
)
from repro.metaopt.fitness_cache import CacheRecord, FitnessCache
from repro.metaopt.psets import (
    HYPERBLOCK_PSET,
    PREFETCH_PSET,
    PSETS,
    REGALLOC_PSET,
)
from repro.metaopt.generalize import (
    BenchmarkScore,
    CrossValidationResult,
    GeneralizationResult,
    build_generalize_engine,
    cross_validate,
    finalize_generalization,
)
from repro.metaopt.harness import (
    CaseStudy,
    EvaluationHarness,
    EvaluatorProtocol,
    case_study,
    make_evaluator,
)
from repro.metaopt.parallel import ParallelEvaluator
from repro.metaopt.priority import PriorityFunction
from repro.metaopt.scheduling import (
    LATENCY_WEIGHTED_DEPTH_TEXT,
    SCHEDULE_PSET,
    dag_environments,
    make_schedule_priority,
)
from repro.metaopt.settings import EvalSettings
from repro.metaopt.specialize import (
    SpecializationResult,
    build_specialize_engine,
    finalize_specialization,
)

__all__ = [
    "BASELINE_TREES",
    "BenchmarkScore",
    "CHOW_HENNESSY_TEXT",
    "CacheRecord",
    "CaseStudy",
    "FitnessCache",
    "CrossValidationResult",
    "EvalSettings",
    "EvaluationHarness",
    "EvaluatorProtocol",
    "GeneralizationResult",
    "HYPERBLOCK_PSET",
    "IMPACT_HYPERBLOCK_TEXT",
    "LATENCY_WEIGHTED_DEPTH_TEXT",
    "ORC_PREFETCH_TEXT",
    "SCHEDULE_PSET",
    "PREFETCH_PSET",
    "PSETS",
    "ParallelEvaluator",
    "PriorityFunction",
    "REGALLOC_PSET",
    "SpecializationResult",
    "build_generalize_engine",
    "build_specialize_engine",
    "case_study",
    "chow_hennessy_tree",
    "cross_validate",
    "dag_environments",
    "finalize_generalization",
    "finalize_specialization",
    "make_evaluator",
    "make_schedule_priority",
    "impact_hyperblock_tree",
    "orc_prefetch_tree",
]
