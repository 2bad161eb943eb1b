"""The human-written baseline priority functions, as GP expressions.

Each case study's baseline is expressed in the GP language itself so it
can seed the initial population (Section 4: "we seed the initial
population with the compiler writer's best guess ... the priority
function distributed with the compiler").  Each pass keeps its native
form, the stock heuristic it runs for a ``None`` hook in
:class:`~repro.passes.pipeline.CompilerOptions`; tests assert the tree
and native forms agree.
"""

from __future__ import annotations

from repro.gp.genome import FlagsGenome
from repro.gp.nodes import Node
from repro.gp.parse import parse
from repro.metaopt.psets import (
    FLAGS_SPACE,
    HYPERBLOCK_PSET,
    PREFETCH_PSET,
    REGALLOC_PSET,
    UNROLL_PSET,
)
from repro.metaopt.scheduling import (
    LATENCY_WEIGHTED_DEPTH_TEXT,
    SCHEDULE_PSET,
)

#: Equation 1 — IMPACT's hyperblock path priority.
IMPACT_HYPERBLOCK_TEXT = (
    "(mul exec_ratio"
    " (mul (tern (or mem_hazard has_unsafe_jsr) 0.25 1.0)"
    "      (sub 2.1 (add (div dep_height dep_height_max)"
    "                    (div num_ops num_ops_max)))))"
)

#: Equation 2 — Chow–Hennessy per-block savings.
CHOW_HENNESSY_TEXT = "(mul w (add (mul ld_save uses) (mul st_save defs)))"

#: ORC's prefetch confidence: trip count estimable and large enough to
#: amortize the prefetch instructions.
ORC_PREFETCH_TEXT = (
    "(or (and trip_known (gt static_trip 7.5))"
    "    (and (not trip_known) (gt est_trip_count 7.5)))"
)

#: The historical unrolling policy as a factor score: strictly positive
#: only at factor 2 among the candidates {2, 4, 8}, so argmax picks the
#: stock factor and rolled loops stay rolled when 2 is illegal.
FIXED_FACTOR_UNROLL_TEXT = "(sub 3.0 factor)"


def impact_hyperblock_tree() -> Node:
    return parse(IMPACT_HYPERBLOCK_TEXT, HYPERBLOCK_PSET.bool_feature_set())


def chow_hennessy_tree() -> Node:
    return parse(CHOW_HENNESSY_TEXT, REGALLOC_PSET.bool_feature_set())


def orc_prefetch_tree() -> Node:
    return parse(ORC_PREFETCH_TEXT, PREFETCH_PSET.bool_feature_set())


def latency_weighted_depth_tree() -> Node:
    """Gibbons-Muchnick list-scheduling priority (extension case)."""
    return parse(LATENCY_WEIGHTED_DEPTH_TEXT,
                 SCHEDULE_PSET.bool_feature_set())


def fixed_factor_unroll_tree() -> Node:
    return parse(FIXED_FACTOR_UNROLL_TEXT,
                 UNROLL_PSET.bool_feature_set())


def default_flags_genome() -> FlagsGenome:
    """The stock CompilerOptions as a flags genome (fitness 1.0 by
    construction — it compiles exactly the baseline pipeline)."""
    return FLAGS_SPACE.default_genome()


BASELINE_TREES = {
    "hyperblock": impact_hyperblock_tree,
    "regalloc": chow_hennessy_tree,
    "prefetch": orc_prefetch_tree,
    "scheduling": latency_weighted_depth_tree,
    "unroll": fixed_factor_unroll_tree,
    "flags": default_flags_genome,
}
