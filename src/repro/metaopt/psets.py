"""Primitive sets for the three case studies.

These define what the compiler writer registers with the GP system:
the feature vocabulary of each hook (Table 4 for hyperblocks, the
Equation 2 terms for register allocation, the trip-count features for
prefetching) plus the expression result type.

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
from repro.passes.hyperblock import (
    HYPERBLOCK_BOOL_FEATURES,
    HYPERBLOCK_REAL_FEATURES,
)
from repro.passes.prefetch import (
    PREFETCH_BOOL_FEATURES,
    PREFETCH_REAL_FEATURES,
)
from repro.passes.regalloc import (
    REGALLOC_BOOL_FEATURES,
    REGALLOC_REAL_FEATURES,
)
from repro.passes.unroll import (
    UNROLL_BOOL_FEATURES,
    UNROLL_FEATURES,
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

#: Extension case study (the paper's Section 2 example, exposed):
#: real-valued list-scheduling priority.
from repro.metaopt.scheduling import SCHEDULE_PSET  # noqa: E402

PSETS = {
    "hyperblock": HYPERBLOCK_PSET,
    "regalloc": REGALLOC_PSET,
    "prefetch": PREFETCH_PSET,
    "scheduling": SCHEDULE_PSET,
    "unroll": UNROLL_PSET,
    "flags": FLAGS_SPACE,
}
