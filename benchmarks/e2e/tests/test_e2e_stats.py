"""Order statistics and compare verdicts."""

import pytest

from benchmarks.e2e.compare import verdict
from benchmarks.e2e.stats import percentile, spread, tail_percentile


@pytest.mark.parametrize(
    ("samples", "expected"),
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(samples, expected):
    values = [float(i) for i in range(samples)]
    tail = tail_percentile(values)
    assert (tail[0] if tail else None) == expected
    if tail:
        assert sum(v > tail[1] for v in values) >= 10


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0


def test_spread_is_the_interquartile_distance_over_the_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


def test_verdicts():
    parent = [100.0 + (i % 3) for i in range(10)]
    assert verdict(parent, [v * 0.8 for v in parent], 0.1, True) == "improved"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, True) == "regressed"
    assert verdict(parent, [v * 1.05 for v in parent], 0.1, True) == "no worse"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 1.01 for v in noisy], 0.1, True) == "unresolved"
    # Higher-is-better metrics flip the sign of "worse".
    assert verdict(parent, [v * 0.8 for v in parent], 0.1, False) == "regressed"
