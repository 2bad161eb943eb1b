"""Priority-function wrappers.

The compiler hooks accept plain callables (feature env -> value).  This
module adapts GP expression trees — and their textual s-expression form
— into those callables, with the defensive behaviour evolution needs:
an expression that raises or returns NaN scores as 0 / False rather
than aborting a compile (fitness evaluation must be total).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable

from repro.gp.generate import PrimitiveSet
from repro.gp.nodes import Node
from repro.gp.parse import parse, unparse
from repro.gp.types import BOOL, REAL


class PriorityFunction:
    """A GP expression usable as a compiler priority hook.

    Call it with a feature environment; it returns a float (real-typed
    trees) or bool (Boolean-typed trees).
    """

    def __init__(self, tree: Node, name: str = "candidate") -> None:
        self.tree = tree
        self.name = name

    def __call__(self, env: Mapping[str, float | bool]):
        try:
            value = self.tree.evaluate(env)
        except (KeyError, ArithmeticError, ValueError, OverflowError):
            return False if self.tree.result_type is BOOL else 0.0
        if self.tree.result_type is BOOL:
            return bool(value)
        value = float(value)
        if value != value:  # NaN
            return 0.0
        return value

    @property
    def text(self) -> str:
        return unparse(self.tree)

    @classmethod
    def from_text(cls, text: str, pset: PrimitiveSet,
                  name: str = "candidate") -> "PriorityFunction":
        tree = parse(text, pset.bool_feature_set())
        if tree.result_type is not pset.result_type:
            raise TypeError(
                f"{name}: expression returns {tree.result_type.value}, "
                f"hook needs {pset.result_type.value}"
            )
        return cls(tree=tree, name=name)


#: A hook that is either a wrapped GP tree or a native Python callable.
PriorityLike = Callable[[Mapping[str, float | bool]], object]
