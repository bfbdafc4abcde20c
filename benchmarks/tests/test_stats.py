import pytest

from stats import TailTooThin, percentile


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(TailTooThin):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)


def test_p50_needs_twenty_samples():
    with pytest.raises(TailTooThin):
        percentile([1.0] * 19, 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_p90_needs_a_hundred_samples():
    with pytest.raises(TailTooThin):
        percentile(list(range(99)), 90)
    percentile(list(range(100)), 90)
