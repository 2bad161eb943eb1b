"""Candidate expression → fixed numeric feature vector.

The surrogate model never sees the simulator; everything it knows
about a candidate must be computable from the expression tree alone.
The vector layout is
fixed per primitive set — every case study gets the same structural
features plus one usage slot per feature name its compiler hook
supplies — so models serialize with their feature names and refuse
vectors of the wrong shape.

Vector layout (in order):

* shape: node count, depth, terminal fraction;
* one count per function primitive (the 13 Table 1 operators);
* one count per terminal kind (``rconst``/``rarg``/``bconst``/``barg``);
* real-constant statistics: mean, min, max, absolute sum (zeros when
  the tree has no constants) and the fraction of ``bconst`` terminals
  that are ``true``;
* one usage count per pset feature name, in ``pset.feature_names``
  order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gp.generate import PrimitiveSet
from repro.gp.nodes import (
    BArg,
    BConst,
    FUNCTION_CLASSES,
    Node,
    RArg,
    RConst,
    TERMINAL_CLASSES,
)

#: Function-operator order in the vector: sorted s-expression heads.
FUNCTION_ORDER: tuple[str, ...] = tuple(sorted(FUNCTION_CLASSES))
#: Terminal-kind order in the vector.
TERMINAL_ORDER: tuple[str, ...] = tuple(sorted(TERMINAL_CLASSES))


@dataclass(frozen=True)
class FeatureExtractor:
    """Maps trees from one case study's primitive set to vectors.

    The width is a pure function of the pset (``len(names)``), so two
    extractors built from equal psets are interchangeable and a model
    trained against one validates vectors from the other.
    """

    pset: PrimitiveSet

    @property
    def names(self) -> tuple[str, ...]:
        """Feature names, one per vector slot, in vector order."""
        return (
            ("size", "depth", "terminal_fraction")
            + tuple(f"op_{op}" for op in FUNCTION_ORDER)
            + tuple(f"term_{term}" for term in TERMINAL_ORDER)
            + ("const_mean", "const_min", "const_max", "const_abs_sum",
               "bconst_true_fraction")
            + tuple(f"use_{name}" for name in self.pset.feature_names)
        )

    @property
    def width(self) -> int:
        return len(self.names)

    def vector(self, tree: Node) -> list[float]:
        """Extract the fixed-width vector for one candidate tree."""
        op_counts = dict.fromkeys(FUNCTION_ORDER, 0)
        term_counts = dict.fromkeys(TERMINAL_ORDER, 0)
        usage = dict.fromkeys(self.pset.feature_names, 0)
        constants: list[float] = []
        bconst_true = 0
        size = 0
        for node in tree.walk():
            size += 1
            if node.op_name in op_counts:
                op_counts[node.op_name] += 1
            else:
                term_counts[node.op_name] += 1
            if isinstance(node, RConst):
                constants.append(node.value)
            elif isinstance(node, BConst):
                bconst_true += int(node.value)
            elif isinstance(node, (RArg, BArg)):
                # Unknown names (hand-written trees outside the pset)
                # simply don't occupy a slot; the structural counts
                # still see them.
                if node.name in usage:
                    usage[node.name] += 1
        terminals = sum(term_counts.values())
        vector = [
            float(size),
            float(tree.depth()),
            terminals / size if size else 0.0,
        ]
        vector.extend(float(op_counts[op]) for op in FUNCTION_ORDER)
        vector.extend(float(term_counts[term]) for term in TERMINAL_ORDER)
        if constants:
            vector.extend([
                sum(constants) / len(constants),
                min(constants),
                max(constants),
                sum(abs(value) for value in constants),
            ])
        else:
            vector.extend([0.0, 0.0, 0.0, 0.0])
        n_bconst = term_counts["bconst"]
        vector.append(bconst_true / n_bconst if n_bconst else 0.0)
        vector.extend(float(usage[name])
                      for name in self.pset.feature_names)
        return vector
