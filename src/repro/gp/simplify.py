"""Expression simplification for presentation.

The expressions shown in the paper (e.g. Figure 8) are "hand simplified
for ease of discussion".  This module mechanizes the easy parts:
constant folding, algebraic identities, and Boolean simplification.
Semantics are preserved exactly — protected division and clamping are
folded with the same rules the evaluator applies.

The module also exposes :func:`find_introns`, which detects subtrees
whose value cannot affect the result (the paper discusses introns as
useful padding during crossover but noise when reading a solution).
Intron detection here is *empirical*: a subtree is flagged when
replacing it with a constant leaves the expression's value unchanged on
a caller-supplied sample of environments.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import repro.gp.nodes as nodes
from repro.gp.nodes import (
    Add,
    And,
    BConst,
    Div,
    Eq,
    Gt,
    Lt,
    Mul,
    Node,
    Not,
    Or,
    RConst,
    Sqrt,
    Sub,
    Tern,
    Cmul,
)


def _const(node: Node) -> float | bool | None:
    """The node's constant value, or None when it is not a constant."""
    if isinstance(node, RConst):
        return node.value
    if isinstance(node, BConst):
        return node.value
    return None


def simplify(tree: Node) -> Node:
    """Return an equivalent, usually smaller, expression."""
    previous = tree
    while True:
        simplified = _simplify_once(previous)
        if simplified.structural_key() == previous.structural_key():
            return simplified
        previous = simplified


def _simplify_once(tree: Node) -> Node:
    children = [_simplify_once(child) for child in tree.children]
    if children:
        tree = type(tree)(*children)

    # Constant folding: all children constant => evaluate now.  The
    # empty environment suffices because constant subtrees reference no
    # features.
    if tree.children and all(_const(child) is not None for child in tree.children):
        value = tree.evaluate({})
        if isinstance(value, bool):
            return BConst(value)
        return RConst(value)

    left = tree.children[0] if tree.children else None
    right = tree.children[1] if len(tree.children) > 1 else None

    if isinstance(tree, Add):
        if _const(left) == 0.0:
            return right
        if _const(right) == 0.0:
            return left
    elif isinstance(tree, Sub):
        if _const(right) == 0.0:
            return left
        if left.structural_key() == right.structural_key():
            return RConst(0.0)
    elif isinstance(tree, Mul):
        if _const(left) == 1.0:
            return right
        if _const(right) == 1.0:
            return left
        if _const(left) == 0.0 or _const(right) == 0.0:
            return RConst(0.0)
    elif isinstance(tree, Div):
        if _const(right) == 1.0:
            return left
        if left.structural_key() == right.structural_key():
            # x/x is 1.0 except at x == 0 where protected division also
            # yields 1.0, so the rewrite is exact.
            return RConst(1.0)
    elif isinstance(tree, Tern):
        condition = _const(tree.children[0])
        if condition is True:
            return tree.children[1]
        if condition is False:
            return tree.children[2]
        if tree.children[1].structural_key() == tree.children[2].structural_key():
            return tree.children[1]
    elif isinstance(tree, Cmul):
        condition = _const(tree.children[0])
        if condition is True:
            return Mul(tree.children[1], tree.children[2])
        if condition is False:
            return tree.children[2]
        if _const(tree.children[1]) == 1.0:
            return tree.children[2]
    elif isinstance(tree, And):
        if _const(left) is True:
            return right
        if _const(right) is True:
            return left
        if _const(left) is False or _const(right) is False:
            return BConst(False)
        if left.structural_key() == right.structural_key():
            return left
    elif isinstance(tree, Or):
        if _const(left) is False:
            return right
        if _const(right) is False:
            return left
        if _const(left) is True or _const(right) is True:
            return BConst(True)
        if left.structural_key() == right.structural_key():
            return left
    elif isinstance(tree, Not):
        if isinstance(left, Not):
            return left.children[0]
    elif isinstance(tree, (Lt, Gt)):
        if left.structural_key() == right.structural_key():
            return BConst(False)
    elif isinstance(tree, Eq):
        if left.structural_key() == right.structural_key():
            return BConst(True)
    elif isinstance(tree, Sqrt):
        inner = _const(left)
        if inner is not None:
            return RConst(abs(inner) ** 0.5)
    return tree


def find_introns(
    tree: Node,
    environments: Iterable[Mapping[str, float | bool]],
    tolerance: float = 0.0,
) -> list[Node]:
    """Subtrees whose removal is undetectable on the given sample.

    For each non-root subtree, the subtree is replaced by a constant (its
    value in the first environment) and the whole expression re-evaluated
    on every environment; if no output changes by more than ``tolerance``
    the subtree is reported as an intron.  Purely empirical — a subtree
    may matter on inputs outside the sample.
    """
    env_list = list(environments)
    if not env_list:
        raise ValueError("need at least one environment")
    baseline = [tree.evaluate(env) for env in env_list]
    introns: list[Node] = []
    for node, parent, slot, _depth in tree.walk_with_context():
        if parent is None or not node.children:
            continue
        pinned_value = node.evaluate(env_list[0])
        replacement: Node
        if isinstance(pinned_value, bool):
            replacement = BConst(pinned_value)
        else:
            replacement = RConst(pinned_value)
        original = parent.children[slot]
        parent.children[slot] = replacement
        try:
            changed = False
            for env, want in zip(env_list, baseline):
                got = tree.evaluate(env)
                if isinstance(want, bool) or isinstance(got, bool):
                    if bool(got) != bool(want):
                        changed = True
                        break
                elif abs(float(got) - float(want)) > tolerance:
                    changed = True
                    break
        finally:
            parent.children[slot] = original
        if not changed:
            introns.append(node)
    return introns
