"""Property tests: the flags-genome operators are closed over the
flag space.

The FOGA-style flags campaign rides the same engine as the tree
campaigns, so its operators must satisfy the same closure contract:
crossover and mutation can only ever produce genomes whose every gene
is a legal choice from :data:`repro.gp.genome.FLAG_GENES`, and the
textual checkpoint format round-trips every reachable genome.  This is
the flags counterpart of ``test_operator_properties.py``.

All randomness is seeded through Hypothesis-drawn integers and
``derandomize=True``, so the suite is deterministic and tier-1 safe.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gp.genome import (
    FlagsGenome,
    FlagsGenomeOps,
    FlagsSpace,
    TreeGenomeOps,
    expression_text,
    genome_ops_for,
    is_flags_text,
)
from repro.gp.parse import ParseError
from repro.metaopt.psets import FLAGS_SPACE, PSETS

DETERMINISTIC = settings(max_examples=40, deadline=None, derandomize=True)

OPS = FlagsGenomeOps(FLAGS_SPACE)


def assert_valid(genome):
    """The closure contract for one genome: every gene legal, Node
    surface consistent, text round trip lossless."""
    assert isinstance(genome, FlagsGenome)
    assert len(genome.values) == len(FLAGS_SPACE.genes)
    for value, (name, choices) in zip(genome.values, FLAGS_SPACE.genes):
        assert value in choices, f"gene {name!r} escaped its choices"
    assert genome.size() == len(FLAGS_SPACE.genes)
    assert genome.depth() == 1
    assert genome.children == ()

    reparsed = FlagsGenome.from_text(genome.text(), FLAGS_SPACE)
    assert reparsed.structural_key() == genome.structural_key(), \
        "text round trip changed the genome"
    assert reparsed == genome
    assert hash(reparsed) == hash(genome)


@st.composite
def genomes(draw):
    """A random genome drawn gene-by-gene (uniform over the space)."""
    values = tuple(draw(st.sampled_from(choices))
                   for _name, choices in FLAGS_SPACE.genes)
    return FlagsGenome(values, FLAGS_SPACE)


class TestCrossoverClosure:
    @DETERMINISTIC
    @given(genomes(), genomes(), st.integers(0, 10_000))
    def test_offspring_valid(self, mother, father, seed):
        left, right = OPS.crossover(mother, father, random.Random(seed),
                                    max_depth=10)
        assert_valid(left)
        assert_valid(right)

    @DETERMINISTIC
    @given(genomes(), genomes(), st.integers(0, 10_000))
    def test_children_are_gene_exchanges(self, mother, father, seed):
        """Uniform crossover only exchanges genes: at every position
        the two children jointly hold exactly the parents' values."""
        left, right = OPS.crossover(mother, father, random.Random(seed),
                                    max_depth=10)
        for index in range(len(mother.values)):
            parents = {mother.values[index], father.values[index]}
            assert left.values[index] in parents
            assert right.values[index] in parents
            assert ({left.values[index], right.values[index]}
                    == parents)

    @DETERMINISTIC
    @given(genomes(), genomes(), st.integers(0, 10_000))
    def test_parents_survive_crossover_intact(self, mother, father, seed):
        mother_values, father_values = mother.values, father.values
        OPS.crossover(mother, father, random.Random(seed), max_depth=10)
        assert mother.values == mother_values
        assert father.values == father_values


class TestMutationClosure:
    @DETERMINISTIC
    @given(genomes(), st.integers(0, 10_000))
    def test_mutant_valid_and_one_gene_changed(self, genome, seed):
        mutant = OPS.mutate(genome, None, random.Random(seed),
                            max_depth=10)
        assert_valid(mutant)
        changed = [index for index in range(len(genome.values))
                   if mutant.values[index] != genome.values[index]]
        assert len(changed) == 1, \
            "single-gene mutation must change exactly one gene"

    @DETERMINISTIC
    @given(genomes(), st.integers(0, 10_000))
    def test_repeated_mutation_stays_closed(self, genome, seed):
        rng = random.Random(seed)
        for _ in range(5):
            genome = OPS.mutate(genome, None, rng, max_depth=10)
        assert_valid(genome)


class TestGenerator:
    @DETERMINISTIC
    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_ramped_half_and_half_valid(self, seed, count):
        generator = OPS.make_generator(random.Random(seed))
        population = generator.ramped_half_and_half(count, 2, 6)
        assert len(population) == count
        for genome in population:
            assert_valid(genome)


class TestTextFormat:
    @DETERMINISTIC
    @given(genomes())
    def test_text_is_flags_text(self, genome):
        assert is_flags_text(genome.text())
        assert expression_text(genome) == genome.text()
        assert OPS.parse(expression_text(genome)) == genome

    def test_default_genome_round_trips(self):
        default = FLAGS_SPACE.default_genome()
        assert FlagsGenome.from_text(default.text(),
                                     FLAGS_SPACE) == default

    @pytest.mark.parametrize("bad", [
        "(add 1 2)",
        "flags inline=1",
        "(flags inline=1)",                       # missing genes
        "(flags inline=1 unroll=2 hyperblock=1 "  # unroll not a choice
        "threshold=0.1 prefetch=0 order=hyperblock-first".replace(
            "unroll=2", "unroll=3") + ")",
    ])
    def test_malformed_text_rejected(self, bad):
        with pytest.raises((ParseError, ValueError)):
            FlagsGenome.from_text(bad, FLAGS_SPACE)


class TestDispatch:
    def test_flags_space_gets_flags_ops(self):
        ops = genome_ops_for(FLAGS_SPACE)
        assert isinstance(ops, FlagsGenomeOps)
        assert ops.kind == "flags"

    @pytest.mark.parametrize("case", ["hyperblock", "regalloc",
                                      "prefetch", "scheduling",
                                      "unroll"])
    def test_tree_psets_get_tree_ops(self, case):
        ops = genome_ops_for(PSETS[case])
        assert isinstance(ops, TreeGenomeOps)
        assert ops.kind == "tree"

    def test_psets_table_exposes_flags_space(self):
        assert isinstance(PSETS["flags"], FlagsSpace)

    def test_invalid_gene_values_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FlagsGenome((True, 3, True, 0.1, False, "hyperblock-first"),
                        FLAGS_SPACE)
        with pytest.raises(ValueError):
            FlagsGenome((True, 2), FLAGS_SPACE)
