"""Random expression generation.

The paper seeds each run with 399 randomly generated expressions of
varying heights plus the compiler writer's best guess (Section 4).  We
use Koza's *ramped half-and-half* initialization: trees are grown to a
ramp of depth limits, half with the "full" method (every branch reaches
the depth limit) and half with the "grow" method (branches may terminate
early).

A :class:`PrimitiveSet` bundles what the compiler writer registers with
the system: the real and Boolean feature names, and the range from which
ephemeral random constants are drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.gp.nodes import (
    FUNCTION_CLASSES,
    BArg,
    BConst,
    Node,
    RArg,
    RConst,
)
from repro.gp.types import BOOL, REAL, GPType


@dataclass(frozen=True)
class PrimitiveSet:
    """The vocabulary available to evolved expressions.

    Parameters
    ----------
    real_features:
        Names of real-valued features the compiler supplies.
    bool_features:
        Names of Boolean features the compiler supplies.
    result_type:
        Type the whole expression must produce (real for hyperblock and
        register allocation, Boolean for prefetching).
    const_range:
        Ephemeral random constants are drawn uniformly from this range.
    const_digits:
        Constants are rounded to this many digits (the paper's evolved
        expressions show 4-digit constants).
    """

    real_features: tuple[str, ...]
    bool_features: tuple[str, ...] = ()
    result_type: GPType = REAL
    const_range: tuple[float, float] = (0.0, 2.0)
    const_digits: int = 4
    functions: tuple[str, ...] = tuple(sorted(FUNCTION_CLASSES))

    def __post_init__(self) -> None:
        overlap = set(self.real_features) & set(self.bool_features)
        if overlap:
            raise ValueError(f"features declared both real and bool: {overlap}")
        unknown = set(self.functions) - set(FUNCTION_CLASSES)
        if unknown:
            raise ValueError(f"unknown function primitives: {unknown}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.real_features + self.bool_features

    def bool_feature_set(self) -> frozenset[str]:
        return frozenset(self.bool_features)


class TreeGenerator:
    """Grows random, well-typed expression trees.

    The generator guarantees closure: every produced tree type-checks
    and evaluates without raising on any environment that supplies the
    declared features.
    """

    def __init__(self, pset: PrimitiveSet,
                 rng: random.Random | None = None) -> None:
        self.pset = pset
        self.rng = random.Random() if rng is None else rng
        self._functions_by_type: dict[GPType, list[type[Node]]] = {
            REAL: [],
            BOOL: [],
        }
        for name in self.pset.functions:
            cls = FUNCTION_CLASSES[name]
            self._functions_by_type[cls.result_type].append(cls)
        # Without Boolean features we can still build Boolean subtrees
        # out of comparisons and constants, so both lists stay nonempty
        # as long as the default primitive set is used.
        for gp_type, classes in self._functions_by_type.items():
            if not classes:
                raise ValueError(f"no function primitives return {gp_type.value}")

    # -- terminals ------------------------------------------------------
    def random_terminal(self, gp_type: GPType) -> Node:
        """Draw a random terminal of the requested type."""
        if gp_type is REAL:
            choices = len(self.pset.real_features) + 1
            pick = self.rng.randrange(choices)
            if pick < len(self.pset.real_features):
                return RArg(self.pset.real_features[pick])
            low, high = self.pset.const_range
            value = round(self.rng.uniform(low, high), self.pset.const_digits)
            return RConst(value)
        choices = len(self.pset.bool_features) + 1
        pick = self.rng.randrange(choices)
        if pick < len(self.pset.bool_features):
            return BArg(self.pset.bool_features[pick])
        return BConst(self.rng.random() < 0.5)

    # -- trees ----------------------------------------------------------
    def grow(self, max_depth: int, gp_type: GPType | None = None) -> Node:
        """Grow method: interior nodes may be terminals before the limit."""
        return self._build(max_depth, gp_type or self.pset.result_type, full=False)

    def full(self, max_depth: int, gp_type: GPType | None = None) -> Node:
        """Full method: every branch extends to exactly ``max_depth``."""
        return self._build(max_depth, gp_type or self.pset.result_type, full=True)

    def _build(self, depth_left: int, gp_type: GPType, full: bool) -> Node:
        if depth_left <= 1:
            return self.random_terminal(gp_type)
        if not full and self.rng.random() < 0.3:
            return self.random_terminal(gp_type)
        cls = self.rng.choice(self._functions_by_type[gp_type])
        children = [
            self._build(depth_left - 1, arg_type, full)
            for arg_type in cls.arg_types
        ]
        return cls(*children)

    def ramped_half_and_half(
        self, count: int, min_depth: int = 2, max_depth: int = 6
    ) -> list[Node]:
        """Koza's standard initialization: a ramp of depths, half grow
        and half full at each depth."""
        if min_depth < 1 or max_depth < min_depth:
            raise ValueError("need 1 <= min_depth <= max_depth")
        trees: list[Node] = []
        depths = list(range(min_depth, max_depth + 1))
        for index in range(count):
            depth = depths[index % len(depths)]
            if index % 2 == 0:
                trees.append(self.grow(depth))
            else:
                trees.append(self.full(depth))
        return trees
