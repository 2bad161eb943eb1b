"""SurrogateEvaluator behavior against a deterministic fake inner
evaluator: cold start, top-K prescreening, champion promotion, stats,
and state round-tripping — no simulator involved."""

import json
import random

import pytest

from repro.gp.generate import TreeGenerator
from repro.gp.parse import unparse
from repro.gp.select import Individual
from repro.metaopt.psets import PSETS
from repro.surrogate.evaluator import SurrogateEvaluator, spearman
from repro.surrogate.features import FeatureExtractor
from repro.surrogate.model import SurrogateModel

CASE = "regalloc"
PSET = PSETS[CASE]


class FakeInner:
    """Exact evaluator stand-in: fitness is a pure function of each
    job's expression text, so every call is reproducible and
    countable."""

    def __init__(self, offset=0.0):
        self.offset = offset
        self.jobs = 0
        self.batches = []
        self.closed = False

    def _value(self, tree, benchmark):
        digest = sum(ord(c) for c in unparse(tree) + benchmark)
        return self.offset + (digest % 100) / 100.0

    def evaluate_batch(self, jobs):
        jobs = list(jobs)
        self.jobs += len(jobs)
        self.batches.append(len(jobs))
        return [self._value(individual.tree, benchmark)
                for individual, benchmark in jobs]

    def stats(self):
        return {"inner_jobs": self.jobs}

    def close(self):
        self.closed = True


def jobs(trees, benchmark):
    """The engine's job records for ``trees`` on ``benchmark``."""
    return [(Individual(tree=tree), benchmark) for tree in trees]


def distinct_trees(count, seed=0):
    generator = TreeGenerator(PSET, rng=random.Random(seed))
    trees, seen = [], set()
    attempt = 0
    while len(trees) < count:
        tree = generator.grow(3 + attempt % 3)
        attempt += 1
        key = tree.structural_key()
        if key not in seen:
            seen.add(key)
            trees.append(tree)
    return trees


def constant_model(value=10.0, pairs=16):
    """A trained model predicting ``value`` for every tree."""
    extractor = FeatureExtractor(PSET)
    rows = [(extractor.vector(tree), "codrle4", value)
            for tree in distinct_trees(pairs, seed=9)]
    model = SurrogateModel(feature_names=extractor.names)
    model.fit(rows)
    assert abs(model.predict(rows[0][0], "codrle4") - value) < 1e-6
    return model


class TestColdStart:
    def test_all_exact_until_first_fit(self):
        inner = FakeInner()
        ev = SurrogateEvaluator(inner, CASE, min_fit_pairs=16)
        trees = distinct_trees(12)
        values = ev.evaluate_batch(jobs(trees, "codrle4"))
        assert values == [inner._value(t, "codrle4") for t in trees]
        assert ev.model is None  # 12 pairs < 16
        ev.evaluate_batch(jobs(trees, "decodrle4"))
        assert ev.model is not None and ev.model.trained
        assert ev.predicted_jobs == 0
        assert inner.jobs == 24


class TestPrescreening:
    def test_tail_scored_from_model(self):
        # Predictions (1.0) sit below every exact value (offset puts
        # them in [5, 6)), so no tail group can promote past the best
        # exact score — the tail genuinely stays model-scored.
        inner = FakeInner(offset=5.0)
        ev = SurrogateEvaluator(inner, CASE, model=constant_model(1.0),
                                top_k=3, epsilon=0.0)
        trees = distinct_trees(10)
        values = ev.evaluate_batch(jobs(trees, "codrle4"))
        assert ev.exact_jobs == 3
        assert ev.predicted_jobs == 7
        assert inner.jobs == 3
        exact_count = sum(
            1 for t, v in zip(trees, values)
            if v == inner._value(t, "codrle4"))
        assert exact_count >= 3
        predicted = [v for t, v in zip(trees, values)
                     if v != inner._value(t, "codrle4")]
        for value in predicted:
            assert abs(value - 1.0) < 1e-6

    def test_promotion_simulates_overestimated_tail(self):
        # Predictions (10.0) tower over every exact value (<1), so the
        # promotion fixpoint must simulate the entire tail — the model
        # can never crown an unverified champion.
        inner = FakeInner()
        ev = SurrogateEvaluator(inner, CASE, model=constant_model(10.0),
                                top_k=2, epsilon=0.0)
        trees = distinct_trees(8)
        values = ev.evaluate_batch(jobs(trees, "codrle4"))
        assert ev.promotions == 6
        assert ev.predicted_jobs == 0
        assert values == [inner._value(t, "codrle4") for t in trees]

    def test_epsilon_explores_the_tail(self):
        inner = FakeInner(offset=5.0)
        ev = SurrogateEvaluator(inner, CASE, model=constant_model(1.0),
                                top_k=1, epsilon=1.0)
        trees = distinct_trees(6)
        ev.evaluate_batch(jobs(trees, "codrle4"))
        # epsilon=1.0 pulls every tail group into the exact set
        assert ev.exact_jobs == 6
        assert ev.predicted_jobs == 0

    def test_empty_batch(self):
        ev = SurrogateEvaluator(FakeInner(), CASE)
        assert ev.evaluate_batch([]) == []

    def test_top_k_validated(self):
        with pytest.raises(ValueError):
            SurrogateEvaluator(FakeInner(), CASE, top_k=0)


class TestStatsAndClose:
    def test_stats_merge_inner_and_are_ints(self):
        inner = FakeInner(offset=5.0)
        ev = SurrogateEvaluator(inner, CASE, model=constant_model(1.0),
                                top_k=2, epsilon=0.0)
        ev.evaluate_batch(jobs(distinct_trees(9), "codrle4"))
        stats = ev.stats()
        assert stats["inner_jobs"] == 2
        assert stats["surrogate_exact_jobs"] == 2
        assert stats["surrogate_sims_saved"] == 7
        assert stats["surrogate_batches"] == 1
        for value in stats.values():
            assert isinstance(value, int)

    def test_close_closes_inner(self):
        inner = FakeInner()
        SurrogateEvaluator(inner, CASE).close()
        assert inner.closed


class TestStateRoundTrip:
    def run_batches(self, ev, trees, start, stop):
        outputs = []
        for i in range(start, stop):
            batch = jobs(trees[i * 6:(i + 1) * 6], "codrle4")
            outputs.append(ev.evaluate_batch(batch))
        return outputs

    def test_restored_evaluator_continues_identically(self):
        trees = distinct_trees(36)
        reference = SurrogateEvaluator(FakeInner(), CASE,
                                       top_k=2, min_fit_pairs=8, seed=3)
        first_half = self.run_batches(reference, trees, 0, 3)
        state = json.loads(json.dumps(reference.state_dict()))
        second_half = self.run_batches(reference, trees, 3, 6)

        resumed = SurrogateEvaluator(FakeInner(), CASE, seed=3)
        resumed.restore_state(state)
        del first_half
        assert self.run_batches(resumed, trees, 3, 6) == second_half
        assert resumed.stats()["surrogate_exact_jobs"] == \
            reference.stats()["surrogate_exact_jobs"]

    def test_version_and_case_checked(self):
        ev = SurrogateEvaluator(FakeInner(), CASE)
        state = ev.state_dict()
        with pytest.raises(ValueError):
            fresh = SurrogateEvaluator(FakeInner(), CASE)
            fresh.restore_state({**state, "version": 99})
        with pytest.raises(ValueError):
            other = SurrogateEvaluator(FakeInner(), "hyperblock")
            other.restore_state(state)


class TestSpearman:
    def test_perfect_and_inverted(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_degenerate_inputs(self):
        assert spearman([], []) == 0.0
        assert spearman([1.0], [2.0]) == 0.0
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0

    def test_ties_averaged(self):
        value = spearman([1, 2, 2, 3], [1, 2, 3, 4])
        assert 0.8 < value < 1.0
