"""Percentile and tail selection of the benchmark harness."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from rsbench.stats import TAIL_BEYOND, batch_means, median, quartile_spread, tail  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 41))[::-1]        # 40 samples, unsorted
    value, pct, n = tail(values)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(v > value for v in values) == TAIL_BEYOND


def test_tail_percentile_grows_with_the_sample_count():
    assert tail(range(20)) == (9.0, 50.0, 20)
    assert tail(range(21)) == (10.0, pytest.approx(100 * 11 / 21), 21)
    assert tail(range(100))[:2] == (89.0, 90.0)
    assert tail(range(1000))[:2] == (989.0, 99.0)


def test_tail_below_twenty_samples_is_the_median():
    assert tail(range(19)) == (9.0, 50.0, 19)
    assert tail([3.0, 1.0, 2.0, 10.0]) == (2.5, 50.0, 4)
    assert tail([7.0]) == (7.0, 50.0, 1)
    with pytest.raises(ValueError):
        tail([])


def test_median_and_quartile_spread():
    assert median([4, 1, 3, 2]) == 2.5
    # quantiles(n=4) of 1..9 (exclusive method): q1 = 2.5, q3 = 7.5, median 5
    assert quartile_spread(range(1, 10)) == pytest.approx(1.0)
    assert quartile_spread([2.0] * 5) == 0.0


def test_batch_means_drop_a_short_last_group():
    assert batch_means([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 3) == [2.0, 5.0]
    assert batch_means([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3) == [2.0, 5.0]
    assert batch_means([1.0, 2.0], 3) == []
    assert batch_means([1.0, 3.0], 1) == [1.0, 3.0]
    assert batch_means([], 3) == []
