"""Extension case study: evolving the list-scheduling priority.

The paper's Section 2 opens with list scheduling as the canonical
priority-function example (Gibbons & Muchnick's latency-weighted
depth), but the evaluation never evolves it.  The scheduler hook
(:data:`repro.passes.schedule.SchedulePriority`) is exposed anyway;
this module packages it as a fourth case study — the "designers will
intentionally expose algorithm policies" future the paper predicts.

Features per instruction (computed once per block DAG):

==============  ======================================================
lw_depth        latency-weighted depth to the DAG leaves (the
                classic priority — also the baseline expression)
asap            earliest issue cycle (longest latency path from roots)
slack           alap - asap (0 = on the critical path)
latency         static latency of the instruction
succ_count      direct dependents
pred_count      direct dependences
total_ops       instructions in the block
is_memory       memory operation (load/store/prefetch)
is_fp           floating-point operation
is_branch       control transfer
critical        slack == 0
==============  ======================================================
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Mapping

from repro.gp.generate import PrimitiveSet
from repro.gp.types import REAL
from repro.ir.instr import FUClass

if TYPE_CHECKING:
    from repro.passes.schedule import BlockDAG, SchedulePriority

SCHEDULE_REAL_FEATURES = (
    "lw_depth",
    "asap",
    "slack",
    "latency",
    "succ_count",
    "pred_count",
    "total_ops",
)
SCHEDULE_BOOL_FEATURES = (
    "is_memory",
    "is_fp",
    "is_branch",
    "critical",
)

SCHEDULE_PSET = PrimitiveSet(
    real_features=SCHEDULE_REAL_FEATURES,
    bool_features=SCHEDULE_BOOL_FEATURES,
    result_type=REAL,
    const_range=(0.0, 8.0),
)

#: The classic baseline, as a GP expression over these features.
LATENCY_WEIGHTED_DEPTH_TEXT = "lw_depth"


def _asap_schedule(dag: BlockDAG) -> list[int]:
    """Earliest start cycle of each instruction (dependences only)."""
    asap = [0] * len(dag.instrs)
    for index in range(len(dag.instrs)):
        for pred, latency in dag.preds[index]:
            asap[index] = max(asap[index], asap[pred] + latency)
    return asap


def dag_environments(dag: BlockDAG) -> list[dict[str, float | bool]]:
    """Feature environments for every instruction in a block DAG."""
    depths = dag.critical_path()
    asap = _asap_schedule(dag)
    span = max((a + dag.latency[i] for i, a in enumerate(asap)),
               default=0)
    total = float(len(dag.instrs))
    environments = []
    for index, instr in enumerate(dag.instrs):
        # ALAP = latest start that still meets the dependence-only
        # schedule length; derived from the depth to the leaves.
        alap = span - depths[index]
        slack = max(0, alap - asap[index])
        environments.append({
            "lw_depth": float(depths[index]),
            "asap": float(asap[index]),
            "slack": float(slack),
            "latency": float(dag.latency[index]),
            "succ_count": float(len(dag.succs[index])),
            "pred_count": float(len(dag.preds[index])),
            "total_ops": total,
            "is_memory": instr.is_memory,
            "is_fp": instr.fu_class is FUClass.FP,
            "is_branch": instr.fu_class is FUClass.BRANCH,
            "critical": slack == 0,
        })
    return environments


def make_schedule_priority(
    priority: Callable[[Mapping[str, float | bool]], float],
) -> SchedulePriority:
    """Adapt a feature-env priority into the scheduler's
    ``(index, dag) -> value`` hook, caching features per DAG."""
    cache: "weakref.WeakKeyDictionary[BlockDAG, list[dict]]" = \
        weakref.WeakKeyDictionary()

    def hook(index: int, dag: BlockDAG) -> float:
        environments = cache.get(dag)
        if environments is None:
            environments = dag_environments(dag)
            cache[dag] = environments
        try:
            value = float(priority(environments[index]))
        except (ArithmeticError, ValueError, OverflowError, KeyError,
                IndexError):
            return 0.0
        if value != value:  # NaN
            return 0.0
        return value

    return hook
