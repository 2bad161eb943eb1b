import statistics

import pytest

from stats import largest_gap, percentile, quartile_spread, quartiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 0.50) == 5
    assert percentile(values, 0.90) == 9
    assert percentile(values, 0.91) == 10
    assert percentile(values, 1.0) == 10
    assert percentile([7], 0.90) == 7
    # always a sample, never an interpolation
    assert percentile([1.0, 2.0], 0.75) == 2.0


def test_percentile_ignores_order_and_rejects_empty():
    assert percentile([5, 1, 4, 2, 3], 0.6) == 3
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_quartile_spread_matches_the_drivers_definition():
    values = [10.0, 10.5, 9.5, 11.0, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_identical_values_have_no_spread():
    assert quartile_spread([3.0] * 5) == 0.0
    assert largest_gap([3.0] * 5) == 0.0
    assert largest_gap([9.0, 10.0, 11.0]) == pytest.approx(0.2)
