"""Primitive sets for the case studies.

These define what the compiler writer registers with the GP system:
the feature vocabulary of each hook (Table 4 for hyperblocks, the
Equation 2 terms for register allocation, the trip-count features for
prefetching) plus the expression result type.  The feature names are
declared here, and each pass's tests hold its environments to them.

Formerly ``repro.metaopt.features`` — a misnomer, since the module
holds :class:`~repro.gp.generate.PrimitiveSet` instances, not feature
extraction.  The old import path keeps working for one release behind
a :class:`DeprecationWarning`; the ``features`` name now belongs to
the surrogate-fitness feature extractor
(:mod:`repro.surrogate.features`).
"""

from __future__ import annotations

from repro.gp.generate import PrimitiveSet
from repro.gp.genome import FlagsSpace
from repro.gp.types import BOOL, REAL
# the list-scheduling case's set lives beside its feature extractor
from repro.metaopt.scheduling import SCHEDULE_PSET

_PATH_FEATURES = ("dep_height", "num_ops", "exec_ratio", "num_branches",
                  "predict_product", "path_ilp")

#: Table 4's per-path features, their region aggregates, the path count.
HYPERBLOCK_REAL_FEATURES: tuple[str, ...] = _PATH_FEATURES + tuple(
    f"{name}_{suffix}"
    for name in _PATH_FEATURES
    for suffix in ("mean", "max", "min", "std")
) + ("num_paths",)
HYPERBLOCK_BOOL_FEATURES: tuple[str, ...] = ("mem_hazard", "has_unsafe_jsr")

REGALLOC_REAL_FEATURES = (
    "w",            # normalized execution frequency of the block
    "uses",         # uses of the range in the block
    "defs",         # defs of the range in the block
    "ld_save",      # machine LDsave constant
    "st_save",      # machine STsave constant
    "live_blocks",  # N: number of blocks in the live range
    "degree",       # interference degree of the range
    "loop_depth",   # loop nesting depth of the block
    "total_uses",   # uses of the range across all blocks
    "total_defs",   # defs of the range across all blocks
    "forbidden_ratio",  # fraction of colours already denied to the range
)
REGALLOC_BOOL_FEATURES = (
    "has_call",     # block contains a call
    "is_float",     # range lives in the FP register file
)

PREFETCH_REAL_FEATURES = (
    "est_trip_count",   # profiled average iterations per entry
    "static_trip",      # statically exact trip count (0 if unknown)
    "stride",           # words advanced per iteration
    "loop_depth",       # nesting depth of the containing loop
    "body_ops",         # instructions in the loop body
    "mem_ops",          # memory operations in the loop body
    "line_reuse",       # iterations per cache line (line/stride), >=1
    "lookahead",        # chosen prefetch distance, iterations
)
PREFETCH_BOOL_FEATURES = (
    "trip_known",       # bounds statically constant
    "is_inner",         # innermost loop
    "unit_stride",      # |stride| == 1
)

UNROLL_FEATURES = (
    "factor",      # the candidate unroll factor being scored
    "trip_count",  # exact iteration count of the loop
    "body_ops",    # instructions in the flattened loop body
    "step",        # induction-variable increment per iteration
    "mem_ops",     # loads + stores in the body
)
UNROLL_BOOL_FEATURES = (
    "has_memory",  # body touches memory
    "has_fp",      # body does floating-point arithmetic
)

#: Case study I (Section 5): real-valued path priority.
HYPERBLOCK_PSET = PrimitiveSet(
    real_features=HYPERBLOCK_REAL_FEATURES,
    bool_features=HYPERBLOCK_BOOL_FEATURES,
    result_type=REAL,
    const_range=(0.0, 2.0),
)

#: Case study II (Section 6): real-valued per-block savings.
REGALLOC_PSET = PrimitiveSet(
    real_features=REGALLOC_REAL_FEATURES,
    bool_features=REGALLOC_BOOL_FEATURES,
    result_type=REAL,
    const_range=(0.0, 4.0),
)

#: Case study III (Section 7): Boolean-valued prefetch confidence.
PREFETCH_PSET = PrimitiveSet(
    real_features=PREFETCH_REAL_FEATURES,
    bool_features=PREFETCH_BOOL_FEATURES,
    result_type=BOOL,
    const_range=(0.0, 64.0),
)

#: Extension case study: real-valued unroll-factor score — evaluated
#: once per legal candidate factor, highest positive factor wins.
UNROLL_PSET = PrimitiveSet(
    real_features=UNROLL_FEATURES,
    bool_features=UNROLL_BOOL_FEATURES,
    result_type=REAL,
    const_range=(0.0, 16.0),
)

#: FOGA-style flag campaign: not a tree pset at all — a fixed-length
#: enum-gene space over CompilerOptions (repro.gp.genome).
FLAGS_SPACE = FlagsSpace()

PSETS = {
    "hyperblock": HYPERBLOCK_PSET,
    "regalloc": REGALLOC_PSET,
    "prefetch": PREFETCH_PSET,
    "scheduling": SCHEDULE_PSET,
    "unroll": UNROLL_PSET,
    "flags": FLAGS_SPACE,
}
