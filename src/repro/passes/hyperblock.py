"""Hyperblock formation (case study I).

If-conversion merges disjoint paths of control into a predicated
single-entry multiple-exit region (Figure 3).  IMPACT's algorithm
enumerates acyclic paths through a region, scores each with the
priority function (Equation 1), and merges the best paths until the
machine's estimated resources are consumed.

**Substitution note** (documented in DESIGN.md): IMPACT selects paths
over general acyclic regions with tail duplication; we implement the
*incremental hammock* variant — innermost if-then(/else) regions are
considered first, and converted regions become straight-line code that
outer regions can then absorb, so nested and sequential branch
structures collapse progressively.  The decision structure the priority
function controls is identical: per-path features (Table 4), priority
ranking, and a resource-bounded greedy merge.

Conversion correctness relies on three invariants:

* the two arm predicates come from one ``cmpp`` and are mutually
  exclusive, so interleaving the guarded arms preserves each arm's
  internal order and the join sees exactly one arm's effects;
* every predicate defined inside the merged block is cleared
  (``mov p, 0``) at the top, so predicates guarded by squashed inner
  ``cmpp`` s read as false rather than stale;
* arms never read registers defined only in the other arm (guaranteed
  upstream: the frontend initializes every declaration, and liveness
  treats guarded defs as uses so cleanup passes cannot break this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.ir.block import Block
from repro.ir.cfg import predecessors
from repro.ir.function import Function
from repro.ir.instr import Instr, Opcode, Rel, cmpp, jmp, mov
from repro.ir.values import Imm, INT, PRED, VReg
from repro.machine.descr import MachineDescription
from repro.passes.schedule import build_dag

if TYPE_CHECKING:
    from repro.profile.profiler import FunctionProfile

#: Priority hook: feature environment -> path priority (higher = merge
#: first).  The environment contains the Table 4 features plus region
#: aggregates; see HYPERBLOCK_REAL_FEATURES / HYPERBLOCK_BOOL_FEATURES.
HyperblockPriority = Callable[[Mapping[str, float | bool]], float]

_BASE_FEATURES = ("dep_height", "num_ops", "exec_ratio", "num_branches",
                  "predict_product", "path_ilp")

HYPERBLOCK_REAL_FEATURES: tuple[str, ...] = _BASE_FEATURES + tuple(
    f"{name}_{suffix}"
    for name in _BASE_FEATURES
    for suffix in ("mean", "max", "min", "std")
) + ("num_paths",)

HYPERBLOCK_BOOL_FEATURES: tuple[str, ...] = ("mem_hazard", "has_unsafe_jsr")


def impact_priority(env: Mapping[str, float | bool]) -> float:
    """Trimaran/IMPACT's baseline heuristic (Equation 1)::

        h_i        = 0.25 if path has a hazard else 1.0
        d_ratio_i  = dep_height_i / max_j dep_height_j
        o_ratio_i  = num_ops_i / max_j num_ops_j
        priority_i = exec_ratio_i * h_i * (2.1 - d_ratio_i - o_ratio_i)
    """
    hazard = env["mem_hazard"] or env["has_unsafe_jsr"]
    h = 0.25 if hazard else 1.0
    d_ratio = env["dep_height"] / max(env["dep_height_max"], 1e-9)
    o_ratio = env["num_ops"] / max(env["num_ops_max"], 1e-9)
    return env["exec_ratio"] * h * (2.1 - d_ratio - o_ratio)


@dataclass
class PathInfo:
    """One path through a hammock region, with its Table 4 features."""

    side: str  # "taken" | "fall"
    entry: str | None  # chain entry label (None for the empty arm)
    blocks: list[str]
    dep_height: float
    num_ops: float
    exec_ratio: float
    num_branches: float
    predict_product: float
    mem_hazard: bool
    has_unsafe_jsr: bool

    @property
    def path_ilp(self) -> float:
        return self.num_ops / max(self.dep_height, 1.0)


@dataclass
class RegionDecision:
    """Record of one region's evaluation (consumed by tests/benches)."""

    head: str
    join: str
    paths: list[PathInfo]
    priorities: list[float]
    converted: bool
    reason: str
    #: ops of the head block shared by both paths (its branch excluded)
    head_ops: int


@dataclass
class HyperblockReport:
    regions_considered: int = 0
    regions_converted: int = 0
    ops_predicated: int = 0
    decisions: list[RegionDecision] = field(default_factory=list)


def region_feature_env(paths: list[PathInfo],
                       index: int) -> dict[str, float | bool]:
    """The feature environment handed to the priority function for
    ``paths[index]``: per-path features plus region aggregates."""
    path = paths[index]
    env: dict[str, float | bool] = {
        "dep_height": path.dep_height,
        "num_ops": path.num_ops,
        "exec_ratio": path.exec_ratio,
        "num_branches": path.num_branches,
        "predict_product": path.predict_product,
        "path_ilp": path.path_ilp,
        "mem_hazard": path.mem_hazard,
        "has_unsafe_jsr": path.has_unsafe_jsr,
        "num_paths": float(len(paths)),
    }
    for name in _BASE_FEATURES:
        values = [getattr(p, name) for p in paths]
        mean = sum(values) / len(values)
        env[f"{name}_mean"] = mean
        env[f"{name}_max"] = max(values)
        env[f"{name}_min"] = min(values)
        env[f"{name}_std"] = math.sqrt(
            sum((v - mean) ** 2 for v in values) / len(values)
        )
    return env


#: default merged-region op cap of the resource budget
DEFAULT_MAX_OPS = 128


def decide(paths: list[PathInfo], priority: HyperblockPriority,
           machine: MachineDescription, rel_threshold: float,
           max_ops: int, head_ops: int) -> tuple[list[float], bool, str]:
    """One region's verdict: ``(priorities, converted, reason)``.

    Scores every path with ``priority`` (a raising or NaN priority
    scores 0.0), then merges paths best-first while each is positive,
    within ``rel_threshold`` of the best and inside the machine's
    resource budget.  Pure: it reads its arguments and nothing else, so
    the pass and the harness's decision trie share the rule."""
    priorities = []
    for index in range(len(paths)):
        env = region_feature_env(paths, index)
        try:
            value = float(priority(env))
        except (ArithmeticError, ValueError, OverflowError):
            value = 0.0
        if value != value:  # NaN
            value = 0.0
        priorities.append(value)

    order = sorted(range(len(paths)), key=lambda i: -priorities[i])
    best = priorities[order[0]]
    selected = [order[0]]
    total_ops = paths[order[0]].num_ops
    max_height = paths[order[0]].dep_height
    reason = "secondary path rejected"
    for index in order[1:]:
        value = priorities[index]
        if best <= 0.0 or value <= 0.0:
            reason = "non-positive priority"
            continue
        if value < rel_threshold * best:
            reason = "below relative threshold"
            continue
        candidate_ops = total_ops + paths[index].num_ops - head_ops
        candidate_height = max(max_height, paths[index].dep_height)
        budget = machine.issue_width * candidate_height
        if candidate_ops > budget or candidate_ops > max_ops:
            reason = "resource budget exhausted"
            continue
        selected.append(index)
        total_ops = candidate_ops
        max_height = candidate_height

    converted = len(selected) == len(paths)
    return priorities, converted, "converted" if converted else reason


class HyperblockFormation:
    """Runs hammock if-conversion over one function, in place."""

    def __init__(
        self,
        function: Function,
        machine: MachineDescription,
        profile: FunctionProfile,
        priority: HyperblockPriority = impact_priority,
        rel_threshold: float = 0.10,
        max_ops: int = DEFAULT_MAX_OPS,
        max_chain_blocks: int = 8,
    ) -> None:
        self.function = function
        self.machine = machine
        self.profile = profile
        self.priority = priority
        self.rel_threshold = rel_threshold
        self.max_ops = max_ops
        self.max_chain_blocks = max_chain_blocks
        self.report = HyperblockReport()
        #: label -> number of branches previously merged into the block
        self._merged_branches: dict[str, int] = {}
        #: label -> product of predictabilities of merged branches
        self._merged_predict: dict[str, float] = {}
        self._evaluated_heads: set[str] = set()

    # -- driver ---------------------------------------------------------------
    def run(self) -> HyperblockReport:
        changed = True
        while changed:
            changed = False
            for label in list(self.function.block_order):
                if label not in self.function.blocks:
                    continue
                if label in self._evaluated_heads:
                    continue
                region = self._match_hammock(label)
                if region is None:
                    continue
                self._evaluated_heads.add(label)
                if self._evaluate_and_convert(label, *region):
                    # Conversion may create a new outer hammock whose
                    # head was already evaluated; allow re-evaluation.
                    self._evaluated_heads.clear()
                    changed = True
                    break
        return self.report

    # -- region matching ----------------------------------------------------------
    def _side_chain(self, start: str, preds: dict[str, list[str]],
                    expected_pred: str) -> tuple[list[str], str] | None:
        """Absorbable straight-line chain beginning at ``start``.

        Returns (chain labels, join label) or None when the chain is
        malformed (shared block reached with interior content, etc.).
        """
        chain: list[str] = []
        current = start
        previous = expected_pred
        while True:
            block = self.function.blocks[current]
            if preds[current] != [previous]:
                # Shared block: this is the join.
                return chain, current
            term = block.instrs[-1]
            if term.op is not Opcode.JMP:
                # BR (unconverted nested region) or RET: not absorbable.
                return None
            if len(chain) >= self.max_chain_blocks:
                return None
            chain.append(current)
            previous = current
            current = term.targets[0]
            if current == start or current in chain:
                return None  # cycle

    def _match_hammock(self, head_label: str):
        head = self.function.blocks[head_label]
        term = head.instrs[-1]
        if term.op is not Opcode.BR:
            return None
        taken_target, fall_target = term.targets
        if taken_target == fall_target:
            return None
        preds = predecessors(self.function)
        taken = self._side_chain(taken_target, preds, head_label)
        fall = self._side_chain(fall_target, preds, head_label)
        if taken is None or fall is None:
            return None
        taken_chain, taken_join = taken
        fall_chain, fall_join = fall
        if taken_join != fall_join:
            return None
        join = taken_join
        if join == head_label:
            return None
        if not taken_chain and not fall_chain:
            return None  # nothing to predicate
        # The join must not be inside either chain (guaranteed by the
        # single-pred walk) and must not be the entry block.
        if join == self.function.block_order[0]:
            return None
        return taken_chain, fall_chain, join

    # -- features -----------------------------------------------------------------
    def _path_info(self, head_label: str, side: str, chain: list[str],
                   entry: str | None, join: str) -> PathInfo:
        head = self.function.blocks[head_label]
        instrs: list[Instr] = list(head.instrs[:-1])
        for label in chain:
            instrs.extend(self.function.blocks[label].instrs[:-1])

        pseudo = Block("__path__", list(instrs))
        dep_height = float(build_dag(pseudo, self.machine).height)
        num_ops = float(len(instrs))

        branch_uid = head.instrs[-1].uid
        accuracy = self.profile.branch_accuracy.get(branch_uid, 0.5)
        predict = accuracy * self._merged_predict.get(head_label, 1.0)
        branches = 1.0 + self._merged_branches.get(head_label, 0)
        for label in chain:
            predict *= self._merged_predict.get(label, 1.0)
            branches += self._merged_branches.get(label, 0)

        first_hop = entry if entry is not None else join
        exec_ratio = self.profile.edge_probability(head_label, first_hop)

        mem_hazard = any(
            instr.hazard and instr.is_memory for instr in instrs
        )
        unsafe_jsr = any(instr.is_call for instr in instrs)
        return PathInfo(
            side=side,
            entry=entry,
            blocks=list(chain),
            dep_height=max(dep_height, 1.0),
            num_ops=num_ops,
            exec_ratio=exec_ratio,
            num_branches=branches,
            predict_product=predict,
            mem_hazard=mem_hazard,
            has_unsafe_jsr=unsafe_jsr,
        )

    # -- decision + conversion ---------------------------------------------------------
    def _evaluate_and_convert(self, head_label: str, taken_chain: list[str],
                              fall_chain: list[str], join: str) -> bool:
        self.report.regions_considered += 1
        paths = [
            self._path_info(head_label, "taken", taken_chain,
                            taken_chain[0] if taken_chain else None, join),
            self._path_info(head_label, "fall", fall_chain,
                            fall_chain[0] if fall_chain else None, join),
        ]
        head_ops = len(self.function.blocks[head_label].instrs) - 1
        priorities, converted, reason = decide(
            paths, self.priority, self.machine, self.rel_threshold,
            self.max_ops, head_ops)
        decision = RegionDecision(
            head=head_label,
            join=join,
            paths=paths,
            priorities=priorities,
            converted=converted,
            reason=reason,
            head_ops=head_ops,
        )
        self.report.decisions.append(decision)
        if not converted:
            return False

        self._convert(head_label, taken_chain, fall_chain, join, paths)
        self.report.regions_converted += 1
        return True

    def _convert(self, head_label: str, taken_chain: list[str],
                 fall_chain: list[str], join: str,
                 paths: list[PathInfo]) -> None:
        function = self.function
        head = function.blocks[head_label]
        branch = head.instrs[-1]
        cond = branch.srcs[0]

        p_taken = function.new_vreg(PRED, "pt")
        p_fall = function.new_vreg(PRED, "pf")

        def chain_instrs(chain: list[str]) -> list[Instr]:
            collected: list[Instr] = []
            for label in chain:
                collected.extend(function.blocks[label].instrs[:-1])
            return collected

        taken_instrs = chain_instrs(taken_chain)
        fall_instrs = chain_instrs(fall_chain)

        # Predicates defined inside the merged arms must be cleared at
        # the top so a squashed inner cmpp leaves them false, not stale.
        inner_preds: list[VReg] = []
        for instr in taken_instrs + fall_instrs:
            for reg in (instr.dest, instr.dest2):
                if isinstance(reg, VReg) and reg.vtype is PRED \
                        and reg not in inner_preds:
                    inner_preds.append(reg)

        new_instrs: list[Instr] = list(head.instrs[:-1])
        for pred_reg in inner_preds:
            new_instrs.append(mov(pred_reg, Imm(0, INT)))
        new_instrs.append(cmpp(p_taken, p_fall, Rel.NE, cond, Imm(0, INT)))

        def guard_arm(instrs: list[Instr], guard: VReg) -> None:
            for instr in instrs:
                if instr.guard is None:
                    instr.guard = guard
                new_instrs.append(instr)

        guard_arm(taken_instrs, p_taken)
        guard_arm(fall_instrs, p_fall)
        new_instrs.append(jmp(join))
        self.report.ops_predicated += len(taken_instrs) + len(fall_instrs)

        head.instrs = new_instrs

        # Bookkeeping for outer regions' features.
        merged_branches = 1 + self._merged_branches.get(head_label, 0)
        merged_predict = self.profile.branch_accuracy.get(branch.uid, 0.5) \
            * self._merged_predict.get(head_label, 1.0)
        for label in taken_chain + fall_chain:
            merged_branches += self._merged_branches.pop(label, 0)
            merged_predict *= self._merged_predict.pop(label, 1.0)
            function.remove_block(label)
        self._merged_branches[head_label] = merged_branches
        self._merged_predict[head_label] = merged_predict


def form_hyperblocks(
    function: Function,
    machine: MachineDescription,
    profile: FunctionProfile,
    priority: HyperblockPriority = impact_priority,
    rel_threshold: float = 0.10,
    max_ops: int = DEFAULT_MAX_OPS,
) -> HyperblockReport:
    """Convenience wrapper: run hyperblock formation on one function."""
    return HyperblockFormation(
        function, machine, profile, priority,
        rel_threshold=rel_threshold, max_ops=max_ops,
    ).run()
