"""The percentile / sample-count rule."""

import pytest

from stats import percentile, spread, tail


def test_percentile_interpolates_like_numpy():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 25) == pytest.approx(1.75)


@pytest.mark.parametrize(
    "count, expected",
    [(20000, 99.9), (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0),
     (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (3, 50.0)],
)
def test_tail_keeps_ten_samples_beyond_the_percentile(count, expected):
    pct, value = tail(list(range(count)))
    assert pct == expected
    if pct > 50.0:
        beyond = sum(1 for sample in range(count) if sample > value)
        assert beyond >= 9  # ten beyond the rank, one of them interpolated into it
    assert value == percentile(list(range(count)), pct)


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == pytest.approx(4.0 / 4.0)
    assert spread([5.0] * 10) == 0.0
