"""The benchmark's arithmetic: percentiles, failures, self time."""

import math

import pytest

import stats


def test_ten_beyond_sample_sizes():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert stats.supports(1000, 99) and not stats.supports(999, 99)
    assert stats.supports(100, 90) and not stats.supports(99, 90)


def test_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 99) == 990
    assert sum(1 for v in values if v > stats.percentile(values, 99)) == 10
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_unsupported_sample():
    with pytest.raises(ValueError, match="p99 needs >= 1000 samples, got 999"):
        stats.percentile([1.0] * 999, 99)
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 99, 90)


def test_failed_requests_enter_as_infinity():
    assert stats.FAILED == math.inf
    # 10 failures among 1000 sit exactly beyond p99: it stays finite.
    ten = [0.001] * 990 + [stats.FAILED] * 10
    assert stats.percentile(ten, 99) == 0.001
    # One more failure and p99 itself is a failure.
    eleven = [0.001] * 989 + [stats.FAILED] * 11
    assert stats.percentile(eleven, 99) == math.inf
    assert stats.finite(math.inf) == 1.7976931348623157e308


def test_self_time_is_busy_minus_children():
    assert stats.self_time(0, 100, [(10, 20), (30, 60)]) == 60
    # Overlapping children count once.
    assert stats.self_time(0, 100, [(10, 50), (40, 60)]) == 50
    # Children overhanging the parent are clipped to it.
    assert stats.self_time(10, 20, [(0, 15), (18, 40)]) == 3
    # Never negative, even when children cover the whole span.
    assert stats.self_time(0, 10, [(0, 10), (0, 10)]) == 0
    assert stats.self_time(0, 10, [(-5, 50)]) == 0
    assert stats.self_time(5, 5, []) == 0


def test_median_and_mean_of_empty_samples_are_zero():
    assert stats.median([]) == 0.0
    assert stats.mean([]) == 0.0
    assert stats.nearest_rank([], 99) == 0.0
    assert stats.median([3.0, 1.0, 2.0, 4.0]) == 2.5
