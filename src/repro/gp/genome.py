"""Genome abstraction: expression trees and flag vectors, one engine.

The paper's GP evolves priority-function *expression trees*; the FOGA
line of work (PAPERS.md) instead runs a GA over the compiler's
*option/flag space*.  Both searches share everything above the genome —
tournament selection, generational replacement, elitism, memoized
fitness, DSS, checkpointing — so :class:`~repro.gp.engine.GPEngine`
delegates the four genome-specific operations (generate, crossover,
mutate, parse) to a ``GenomeOps`` strategy object (the text a genome
parses from is :func:`expression_text`'s):

* :class:`TreeGenomeOps` wraps the existing tree operators verbatim —
  same functions, same argument order, same RNG draws — so a tree
  campaign's evolution is byte-identical to the pre-abstraction engine;
* :class:`FlagsGenomeOps` operates on :class:`FlagsGenome`, a fixed-
  length vector of enum genes over ``CompilerOptions`` (uniform
  crossover, single-gene mutation).

:func:`genome_ops_for` picks the right strategy from the pset object,
so every existing call site that passes a
:class:`~repro.gp.generate.PrimitiveSet` keeps working unchanged.

A :class:`FlagsGenome` duck-types the small surface of
:class:`~repro.gp.nodes.Node` the engine and selection code touch
(``copy``, ``size``, ``depth``, ``structural_key``, equality/hash), and
serializes to a single s-expression-shaped line
``(flags inline=1 unroll=2 ...)`` for checkpoints and result files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.gp.crossover import crossover as tree_crossover
from repro.gp.generate import PrimitiveSet, TreeGenerator
from repro.gp.mutate import mutate as tree_mutate
from repro.gp.nodes import Node
from repro.gp.parse import ParseError, parse, unparse

#: Gene name -> ordered value choices.  ``order`` selects the backend
#: stage permutation (only the two region-shaping stages may swap; see
#: ``repro.passes.pipeline.validate_backend_order``).
FLAG_GENES: tuple[tuple[str, tuple], ...] = (
    ("inline", (False, True)),
    ("unroll", (1, 2, 4, 8)),
    ("hyperblock", (False, True)),
    ("threshold", (0.05, 0.1, 0.2, 0.4)),
    ("prefetch", (False, True)),
    ("order", ("hyperblock-first", "prefetch-first")),
)

_ORDER_TUPLES = {
    "hyperblock-first": ("hyperblock", "prefetch", "regalloc", "schedule"),
    "prefetch-first": ("prefetch", "hyperblock", "regalloc", "schedule"),
}


@dataclass(frozen=True)
class FlagsSpace:
    """The searchable flag space — the flags campaign's "pset".

    Carries the gene table plus the couple of attributes generic code
    reads off a pset (``feature_names`` for display).  Anything
    tree-only (``bool_feature_set``, ``result_type``) is deliberately
    absent so misuse fails loudly.
    """

    genes: tuple[tuple[str, tuple], ...] = FLAG_GENES

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name, _choices in self.genes)

    def default_genome(self) -> "FlagsGenome":
        """The genome matching stock ``CompilerOptions`` defaults —
        the campaign's seeded baseline (fitness exactly 1.0)."""
        return FlagsGenome(values=(True, 2, True, 0.1, False,
                                   "hyperblock-first"), space=self)


class FlagsGenome:
    """One point in the flag space; duck-types the Node surface the
    engine touches."""

    __slots__ = ("values", "space")

    #: Node-compat: the engine never descends into flag genomes.
    children: tuple = ()

    def __init__(self, values: tuple, space: FlagsSpace) -> None:
        if len(values) != len(space.genes):
            raise ValueError(
                f"flags genome needs {len(space.genes)} genes, "
                f"got {len(values)}")
        for value, (name, choices) in zip(values, space.genes):
            if value not in choices:
                raise ValueError(
                    f"gene {name!r}: {value!r} not in {choices}")
        self.values = tuple(values)
        self.space = space

    # -- Node-surface duck typing ---------------------------------------
    def copy(self) -> "FlagsGenome":
        return FlagsGenome(self.values, self.space)

    def size(self) -> int:
        return len(self.values)

    def depth(self) -> int:
        return 1

    def structural_key(self) -> tuple:
        return ("flags",) + self.values

    def __eq__(self, other) -> bool:
        return (isinstance(other, FlagsGenome)
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash(("flags", self.values))

    def __repr__(self) -> str:
        return f"FlagsGenome({self.text()})"

    # -- semantics ------------------------------------------------------
    def option_changes(self) -> dict:
        """``CompilerOptions`` field values this genome pins (plain
        data only, so this layer needs no compiler imports)."""
        genes = dict(zip(self.space.feature_names, self.values))
        return {
            "inline": genes["inline"],
            "unroll_factor": genes["unroll"],
            "hyperblock": genes["hyperblock"],
            "hyperblock_threshold": genes["threshold"],
            "prefetch": genes["prefetch"],
            "backend_order": _ORDER_TUPLES[genes["order"]],
        }

    def install(self, options):
        """A ``CompilerOptions`` copy with this genome's flags set."""
        return dataclasses.replace(options, **self.option_changes())

    # -- textual round-trip ---------------------------------------------
    def text(self) -> str:
        parts = []
        for value, (name, _choices) in zip(self.values, self.space.genes):
            if isinstance(value, bool):
                rendered = "1" if value else "0"
            else:
                rendered = repr(value) if isinstance(value, float) else str(value)
            parts.append(f"{name}={rendered}")
        return "(flags " + " ".join(parts) + ")"

    @classmethod
    def from_text(cls, text: str, space: FlagsSpace) -> "FlagsGenome":
        stripped = text.strip()
        if not (stripped.startswith("(flags") and stripped.endswith(")")):
            raise ParseError(f"not a flags genome: {text!r}")
        assignments = {}
        for token in stripped[len("(flags"):-1].split():
            name, _, raw = token.partition("=")
            assignments[name] = raw
        values = []
        for name, choices in space.genes:
            if name not in assignments:
                raise ParseError(f"flags genome missing gene {name!r}")
            raw = assignments[name]
            sample = choices[0]
            if isinstance(sample, bool):
                values.append(raw == "1")
            elif isinstance(sample, float):
                values.append(float(raw))
            elif isinstance(sample, int):
                values.append(int(raw))
            else:
                values.append(raw)
        return cls(tuple(values), space)


def is_flags_text(text: str) -> bool:
    """True when ``text`` serializes a flags genome rather than an
    expression tree."""
    return text.lstrip().startswith("(flags")


class _FlagsGenerator:
    """Random-genome source; duck-types the slice of
    :class:`~repro.gp.generate.TreeGenerator` the engine uses."""

    def __init__(self, space: FlagsSpace, rng) -> None:
        self.space = space
        self.rng = rng

    def random_genome(self) -> FlagsGenome:
        values = tuple(self.rng.choice(choices)
                       for _name, choices in self.space.genes)
        return FlagsGenome(values, self.space)

    def ramped_half_and_half(self, count: int, min_depth: int = 2,
                             max_depth: int = 6) -> list[FlagsGenome]:
        # Depth is meaningless for fixed-length genomes; the signature
        # matches so the engine's population seeding works unchanged.
        return [self.random_genome() for _ in range(count)]


class TreeGenomeOps:
    """Expression-tree genome: thin pass-throughs to the existing
    operators.  Call order and argument shapes are identical to the
    pre-abstraction engine, so RNG streams (and therefore whole
    campaigns) stay byte-identical."""

    kind = "tree"

    def __init__(self, pset: PrimitiveSet) -> None:
        self.pset = pset

    def make_generator(self, rng) -> TreeGenerator:
        return TreeGenerator(self.pset, rng=rng)

    def crossover(self, mother: Node, father: Node, rng, max_depth: int):
        return tree_crossover(mother, father, rng, max_depth)

    def mutate(self, tree: Node, generator, rng, max_depth: int) -> Node:
        return tree_mutate(tree, generator, rng, max_depth)

    def parse(self, text: str) -> Node:
        return parse(text, self.pset.bool_feature_set())


class FlagsGenomeOps:
    """Flag-vector genome: uniform crossover, single-gene mutation."""

    kind = "flags"

    def __init__(self, space: FlagsSpace) -> None:
        self.space = space

    def make_generator(self, rng) -> _FlagsGenerator:
        return _FlagsGenerator(self.space, rng)

    def crossover(self, mother: FlagsGenome, father: FlagsGenome, rng,
                  max_depth: int):
        left, right = [], []
        for index in range(len(mother.values)):
            if rng.random() < 0.5:
                left.append(mother.values[index])
                right.append(father.values[index])
            else:
                left.append(father.values[index])
                right.append(mother.values[index])
        return (FlagsGenome(tuple(left), self.space),
                FlagsGenome(tuple(right), self.space))

    def mutate(self, genome: FlagsGenome, generator, rng,
               max_depth: int) -> FlagsGenome:
        index = rng.randrange(len(genome.values))
        _name, choices = self.space.genes[index]
        alternatives = [value for value in choices
                        if value != genome.values[index]]
        values = list(genome.values)
        values[index] = rng.choice(alternatives)
        return FlagsGenome(tuple(values), self.space)

    def parse(self, text: str) -> FlagsGenome:
        return FlagsGenome.from_text(text, self.space)


def genome_ops_for(pset):
    """The genome strategy matching a pset-like object."""
    if isinstance(pset, FlagsSpace):
        return FlagsGenomeOps(pset)
    return TreeGenomeOps(pset)


def expression_text(tree) -> str:
    """Text form of any genome — flags line or s-expression."""
    if isinstance(tree, FlagsGenome):
        return tree.text()
    return unparse(tree)
