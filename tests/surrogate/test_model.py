"""Model training is deterministic, order-independent, and JSON
round-trippable — the properties resume byte-identity leans on."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.surrogate.model import MIN_TOTAL_PAIRS, RidgeModel, SurrogateModel

DETERMINISTIC = settings(max_examples=25, deadline=None, derandomize=True)

WIDTH = 5
NAMES = tuple(f"f{i}" for i in range(WIDTH))


def synthetic_pairs(seed, count=24, benchmarks=("a", "b", "c")):
    """Noisy-linear labeled vectors, deterministic per seed."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        vector = [float(rng.randint(0, 9)) for _ in range(WIDTH)]
        label = (1.0 + 0.05 * vector[0] - 0.02 * vector[3]
                 + 0.01 * rng.random())
        pairs.append((vector, benchmarks[i % len(benchmarks)], label))
    return pairs


class TestTrainingDeterminism:
    @DETERMINISTIC
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_same_pairs_any_order_byte_identical(self, seed, shuffle_seed):
        pairs = synthetic_pairs(seed)
        shuffled = pairs[:]
        random.Random(shuffle_seed).shuffle(shuffled)

        first = SurrogateModel(feature_names=NAMES)
        first.fit(pairs)
        second = SurrogateModel(feature_names=NAMES)
        second.fit(shuffled)
        assert first.to_json() == second.to_json()

    @DETERMINISTIC
    @given(st.integers(min_value=0, max_value=10_000))
    def test_json_round_trip_byte_identical(self, seed):
        model = SurrogateModel(feature_names=NAMES)
        model.fit(synthetic_pairs(seed))
        restored = SurrogateModel.from_json_dict(model.to_json_dict())
        assert restored.to_json() == model.to_json()
        vector = [1.0, 2.0, 3.0, 4.0, 5.0]
        for benchmark in ("a", "never-seen"):
            assert restored.predict(vector, benchmark) == \
                model.predict(vector, benchmark)


class TestFitContract:
    def test_too_few_pairs_rejected(self):
        model = SurrogateModel(feature_names=NAMES)
        with pytest.raises(ValueError):
            model.fit(synthetic_pairs(0)[:MIN_TOTAL_PAIRS - 1])

    def test_wrong_width_rejected(self):
        model = SurrogateModel(feature_names=NAMES)
        bad = [([1.0, 2.0], "a", 1.0)] * MIN_TOTAL_PAIRS
        with pytest.raises(ValueError):
            model.fit(bad)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError):
            SurrogateModel(feature_names=NAMES).predict(
                [0.0] * WIDTH, "a")

    def test_predict_wrong_width_rejected(self):
        model = SurrogateModel(feature_names=NAMES)
        model.fit(synthetic_pairs(1))
        with pytest.raises(ValueError):
            model.predict([0.0] * (WIDTH + 1), "a")

    def test_per_benchmark_submodels_fit_when_enough_rows(self):
        # 24 pairs over 3 benchmarks → 8 rows each, exactly the floor.
        model = SurrogateModel(feature_names=NAMES)
        model.fit(synthetic_pairs(4, count=24))
        assert sorted(model.per_benchmark) == ["a", "b", "c"]
        # 7 rows per benchmark stays global-only.
        sparse = SurrogateModel(feature_names=NAMES)
        sparse.fit(synthetic_pairs(4, count=21,
                                   benchmarks=("a", "b", "c")))
        assert sparse.per_benchmark == {}


class TestBaseModels:
    def test_ridge_recovers_linear_signal(self):
        rng = random.Random(11)
        xs = [[float(rng.randint(0, 9)) for _ in range(3)]
              for _ in range(40)]
        ys = [2.0 + 0.5 * x[0] - 0.25 * x[2] for x in xs]
        model = RidgeModel()
        model.fit(xs, ys)
        # alpha=1.0 shrinks the weights slightly; close is enough
        for x, y in zip(xs, ys):
            assert abs(model.predict(x) - y) < 0.2

    def test_constant_target_is_exact(self):
        xs = [[float(i), float(i % 3)] for i in range(12)]
        ys = [4.0] * 12
        model = RidgeModel()
        model.fit(xs, ys)
        assert abs(model.predict([99.0, 1.0]) - 4.0) < 1e-9
