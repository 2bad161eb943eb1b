"""Expression-tree nodes implementing the paper's Table 1 primitives.

Real-valued functions::

    (add r r)  (sub r r)  (mul r r)  (div r r)  (sqrt r)
    (tern b r r)   -- r1 if b else r2
    (cmul b r r)   -- r1 * r2 if b else r2     (conditional multiply)
    (rconst K)     -- real constant
    (rarg name)    -- real feature from the evaluation environment

Boolean-valued functions::

    (and b b)  (or b b)  (not b)
    (lt r r)  (gt r r)  (eq r r)
    (bconst {true,false})
    (barg name)    -- Boolean feature from the evaluation environment

Arithmetic is *protected* in the usual GP sense so that every expression
is total: division by zero yields 1.0 and square root operates on the
absolute value.  Evaluation therefore never raises, which matters
because the compiler evaluates candidate priority functions on whatever
feature values a program throws at them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from typing import Union

from repro.gp.types import BOOL, REAL, GPType

Env = Mapping[str, Union[float, bool]]

#: Values larger than this are clamped; keeps runaway (mul (mul ...))
#: chains from overflowing to inf and poisoning comparisons downstream.
_CLAMP = 1e150


def _clamp(value: float) -> float:
    if value != value:  # NaN
        return 0.0
    if value > _CLAMP:
        return _CLAMP
    if value < -_CLAMP:
        return -_CLAMP
    return value


class Node:
    """Base class for all expression-tree nodes.

    Subclasses define ``op_name`` (the s-expression head), ``result_type``
    and ``arg_types``.  A node owns its children; trees are never shared
    between individuals (``copy`` performs a deep copy).  A tree is never
    mutated once a :class:`~repro.gp.select.Individual` holds it: the
    individual computes its size, structural key and text once.
    Crossover and mutation copy before they edit, and ``find_introns``
    restores every subtree it swaps out.
    """

    __slots__ = ("children",)

    op_name: str = "?"
    result_type: GPType = REAL
    arg_types: tuple[GPType, ...] = ()

    def __init__(self, *children: "Node") -> None:
        expected = self.arg_types
        if len(children) != len(expected):
            raise ValueError(
                f"{self.op_name} expects {len(expected)} children, "
                f"got {len(children)}"
            )
        for child, want in zip(children, expected):
            if child.result_type is not want:
                raise TypeError(
                    f"{self.op_name}: child {child.op_name} returns "
                    f"{child.result_type.value}, expected {want.value}"
                )
        self.children: list[Node] = list(children)

    # -- evaluation ---------------------------------------------------
    def evaluate(self, env: Env) -> Union[float, bool]:
        """Evaluate the expression against a feature environment."""
        raise NotImplementedError

    # -- structure ----------------------------------------------------
    def size(self) -> int:
        """Total number of nodes in the subtree rooted here."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Depth of the subtree; a lone terminal has depth 1."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def walk_with_context(
        self, depth: int = 0
    ) -> Iterator[tuple["Node", "Node | None", int, int]]:
        """Pre-order traversal yielding ``(node, parent, slot, depth)``."""
        yield self, None, -1, depth
        stack: list[tuple[Node, int]] = [(self, depth)]
        while stack:
            parent, pdepth = stack.pop()
            for slot, child in enumerate(parent.children):
                yield child, parent, slot, pdepth + 1
                stack.append((child, pdepth + 1))

    def copy(self) -> "Node":
        """Deep copy of the subtree."""
        return type(self)(*(child.copy() for child in self.children))

    # -- comparison / hashing ------------------------------------------
    def structural_key(self) -> tuple:
        """A hashable key identifying the tree's exact structure."""
        return (self.op_name,) + tuple(
            child.structural_key() for child in self.children
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __hash__(self) -> int:
        return hash(self.structural_key())

    def __repr__(self) -> str:
        from repro.gp.parse import unparse

        return f"<{type(self).__name__} {unparse(self)!r}>"


# ---------------------------------------------------------------------------
# Real-valued primitives
# ---------------------------------------------------------------------------


class Add(Node):
    __slots__ = ()
    op_name = "add"
    result_type = REAL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> float:
        return _clamp(self.children[0].evaluate(env) + self.children[1].evaluate(env))


class Sub(Node):
    __slots__ = ()
    op_name = "sub"
    result_type = REAL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> float:
        return _clamp(self.children[0].evaluate(env) - self.children[1].evaluate(env))


class Mul(Node):
    __slots__ = ()
    op_name = "mul"
    result_type = REAL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> float:
        return _clamp(self.children[0].evaluate(env) * self.children[1].evaluate(env))


class Div(Node):
    """Protected division: x / 0 evaluates to 1.0 (Koza's convention)."""

    __slots__ = ()
    op_name = "div"
    result_type = REAL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> float:
        denominator = self.children[1].evaluate(env)
        if denominator == 0.0:
            return 1.0
        return _clamp(self.children[0].evaluate(env) / denominator)


class Sqrt(Node):
    """Protected square root: operates on the absolute value."""

    __slots__ = ()
    op_name = "sqrt"
    result_type = REAL
    arg_types = (REAL,)

    def evaluate(self, env: Env) -> float:
        return math.sqrt(abs(self.children[0].evaluate(env)))


class Tern(Node):
    """``r1 if b else r2`` — the paper's ternary select."""

    __slots__ = ()
    op_name = "tern"
    result_type = REAL
    arg_types = (BOOL, REAL, REAL)

    def evaluate(self, env: Env) -> float:
        if self.children[0].evaluate(env):
            return self.children[1].evaluate(env)
        return self.children[2].evaluate(env)


class Cmul(Node):
    """Conditional multiply: ``r1 * r2 if b else r2``."""

    __slots__ = ()
    op_name = "cmul"
    result_type = REAL
    arg_types = (BOOL, REAL, REAL)

    def evaluate(self, env: Env) -> float:
        second = self.children[2].evaluate(env)
        if self.children[0].evaluate(env):
            return _clamp(self.children[1].evaluate(env) * second)
        return second


class RConst(Node):
    """Real constant terminal ``(rconst K)``."""

    __slots__ = ("value",)
    op_name = "rconst"
    result_type = REAL
    arg_types = ()

    def __init__(self, value: float) -> None:
        super().__init__()
        self.value = float(value)

    def evaluate(self, env: Env) -> float:
        return self.value

    def copy(self) -> "RConst":
        return RConst(self.value)

    def structural_key(self) -> tuple:
        return (self.op_name, self.value)


class RArg(Node):
    """Real-valued feature terminal; reads ``name`` from the environment."""

    __slots__ = ("name",)
    op_name = "rarg"
    result_type = REAL
    arg_types = ()

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def evaluate(self, env: Env) -> float:
        return float(env[self.name])

    def copy(self) -> "RArg":
        return RArg(self.name)

    def structural_key(self) -> tuple:
        return (self.op_name, self.name)


# ---------------------------------------------------------------------------
# Boolean-valued primitives
# ---------------------------------------------------------------------------


class And(Node):
    __slots__ = ()
    op_name = "and"
    result_type = BOOL
    arg_types = (BOOL, BOOL)

    def evaluate(self, env: Env) -> bool:
        return bool(self.children[0].evaluate(env)) and bool(
            self.children[1].evaluate(env)
        )


class Or(Node):
    __slots__ = ()
    op_name = "or"
    result_type = BOOL
    arg_types = (BOOL, BOOL)

    def evaluate(self, env: Env) -> bool:
        return bool(self.children[0].evaluate(env)) or bool(
            self.children[1].evaluate(env)
        )


class Not(Node):
    __slots__ = ()
    op_name = "not"
    result_type = BOOL
    arg_types = (BOOL,)

    def evaluate(self, env: Env) -> bool:
        return not self.children[0].evaluate(env)


class Lt(Node):
    __slots__ = ()
    op_name = "lt"
    result_type = BOOL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> bool:
        return self.children[0].evaluate(env) < self.children[1].evaluate(env)


class Gt(Node):
    __slots__ = ()
    op_name = "gt"
    result_type = BOOL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> bool:
        return self.children[0].evaluate(env) > self.children[1].evaluate(env)


class Eq(Node):
    __slots__ = ()
    op_name = "eq"
    result_type = BOOL
    arg_types = (REAL, REAL)

    def evaluate(self, env: Env) -> bool:
        return self.children[0].evaluate(env) == self.children[1].evaluate(env)


class BConst(Node):
    """Boolean constant terminal ``(bconst true|false)``."""

    __slots__ = ("value",)
    op_name = "bconst"
    result_type = BOOL
    arg_types = ()

    def __init__(self, value: bool) -> None:
        super().__init__()
        self.value = bool(value)

    def evaluate(self, env: Env) -> bool:
        return self.value

    def copy(self) -> "BConst":
        return BConst(self.value)

    def structural_key(self) -> tuple:
        return (self.op_name, self.value)


class BArg(Node):
    """Boolean feature terminal; reads ``name`` from the environment."""

    __slots__ = ("name",)
    op_name = "barg"
    result_type = BOOL
    arg_types = ()

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def evaluate(self, env: Env) -> bool:
        return bool(env[self.name])

    def copy(self) -> "BArg":
        return BArg(self.name)

    def structural_key(self) -> tuple:
        return (self.op_name, self.name)


#: Function (non-terminal) node classes, keyed by s-expression head.
FUNCTION_CLASSES: dict[str, type[Node]] = {
    cls.op_name: cls
    for cls in (Add, Sub, Mul, Div, Sqrt, Tern, Cmul, And, Or, Not, Lt, Gt, Eq)
}

#: Terminal node classes, keyed by s-expression head.
TERMINAL_CLASSES: dict[str, type[Node]] = {
    cls.op_name: cls for cls in (RConst, RArg, BConst, BArg)
}

ALL_CLASSES: dict[str, type[Node]] = {**FUNCTION_CLASSES, **TERMINAL_CLASSES}
