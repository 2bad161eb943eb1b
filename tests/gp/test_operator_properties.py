"""Property tests: the GP operators are closed over well-formed trees.

The paper's search only works because crossover, mutation and
simplification can never manufacture an ill-typed expression — any
closure bug would surface as a crash (or worse, a silently wrong
heuristic) deep inside a long evolution run.  These tests state the
closure contract directly, over the *production* primitive sets of all
six tree-based case studies (the flags genome has its own closure
suite in ``test_genome_properties.py``):

* every offspring is type-correct and arity-correct at every node;
* every offspring respects the depth bound;
* every offspring evaluates to a value of the pset's result type;
* every offspring survives a ``parse(unparse(tree))`` round trip
  structurally unchanged — the persistence format cannot lose trees
  the operators can produce.

All randomness is seeded through Hypothesis-drawn integers and
``derandomize=True``, so the suite is deterministic and tier-1 safe.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.gp.crossover import crossover
from repro.gp.generate import TreeGenerator
from repro.gp.mutate import mutate
from repro.gp.parse import parse, unparse
from repro.gp.simplify import simplify
from repro.gp.types import BOOL, REAL
from repro.metaopt.psets import PSETS

CASES = ("hyperblock", "regalloc", "prefetch", "scheduling", "unroll")

DETERMINISTIC = settings(max_examples=40, deadline=None, derandomize=True)


def make_environment(pset, rng):
    env = {name: rng.uniform(-10.0, 10.0) for name in pset.real_features}
    env.update({name: rng.random() < 0.5 for name in pset.bool_features})
    return env


def assert_closed(tree, pset, max_depth=None):
    """The full closure contract for one tree."""
    for node in tree.walk():
        assert len(node.children) == len(node.arg_types), \
            f"{node.op_name} arity violated"
        for child, want in zip(node.children, node.arg_types):
            assert child.result_type is want, \
                f"{node.op_name} child type violated"
    assert tree.result_type is pset.result_type
    if max_depth is not None:
        assert tree.depth() <= max_depth

    value = tree.evaluate(make_environment(pset, random.Random(99)))
    if pset.result_type is REAL:
        assert isinstance(value, float)
    else:
        assert pset.result_type is BOOL and isinstance(value, bool)

    reparsed = parse(unparse(tree), pset.bool_feature_set())
    assert reparsed.structural_key() == tree.structural_key(), \
        "parse/unparse round trip changed the tree"


@st.composite
def operator_inputs(draw):
    """A case name, a seeded generator, and two random parents."""
    case = draw(st.sampled_from(CASES))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    depth = draw(st.integers(min_value=2, max_value=6))
    full = draw(st.booleans())
    pset = PSETS[case]
    rng = random.Random(seed)
    generator = TreeGenerator(pset, rng=rng)
    build = generator.full if full else generator.grow
    return pset, generator, rng, build(depth), build(depth)


class TestCrossoverClosure:
    @DETERMINISTIC
    @given(operator_inputs())
    def test_offspring_closed_and_depth_bounded(self, inputs):
        pset, _generator, rng, mother, father = inputs
        left, right = crossover(mother, father, rng, max_depth=10)
        assert_closed(left, pset, max_depth=10)
        assert_closed(right, pset, max_depth=10)

    @DETERMINISTIC
    @given(operator_inputs())
    def test_parents_survive_crossover_intact(self, inputs):
        pset, _generator, rng, mother, father = inputs
        mother_key = mother.structural_key()
        father_key = father.structural_key()
        crossover(mother, father, rng)
        assert mother.structural_key() == mother_key
        assert father.structural_key() == father_key


class TestMutationClosure:
    @DETERMINISTIC
    @given(operator_inputs())
    def test_mutant_closed_and_depth_bounded(self, inputs):
        pset, generator, rng, tree, _other = inputs
        mutant = mutate(tree, generator, rng, max_depth=10)
        assert_closed(mutant, pset, max_depth=10)

    @DETERMINISTIC
    @given(operator_inputs())
    def test_repeated_mutation_stays_closed(self, inputs):
        """Closure must hold under composition, not just one step."""
        pset, generator, rng, tree, _other = inputs
        for _ in range(5):
            tree = mutate(tree, generator, rng, max_depth=10)
        assert_closed(tree, pset, max_depth=10)


class TestSimplifyClosure:
    @DETERMINISTIC
    @given(operator_inputs())
    def test_simplified_tree_closed_and_no_larger(self, inputs):
        pset, _generator, _rng, tree, _other = inputs
        simplified = simplify(tree)
        assert_closed(simplified, pset)
        assert simplified.size() <= tree.size()

    @DETERMINISTIC
    @given(operator_inputs(), st.integers(min_value=0, max_value=10_000))
    def test_simplify_preserves_semantics(self, inputs, env_seed):
        pset, _generator, _rng, tree, _other = inputs
        simplified = simplify(tree)
        env = make_environment(pset, random.Random(env_seed))
        before, after = tree.evaluate(env), simplified.evaluate(env)
        if pset.result_type is REAL:
            assert after == before or abs(after - before) < 1e-9
        else:
            assert after is before


class TestPipelinedOperators:
    """The operators compose the way the engine actually uses them:
    crossover, then (sometimes) mutation, then simplification of the
    reported champion."""

    @DETERMINISTIC
    @given(operator_inputs())
    def test_breeding_pipeline_closed(self, inputs):
        pset, generator, rng, mother, father = inputs
        left, right = crossover(mother, father, rng, max_depth=10)
        for child in (left, right):
            mutant = mutate(child, generator, rng, max_depth=10)
            assert_closed(simplify(mutant), pset)
