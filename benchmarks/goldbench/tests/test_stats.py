"""Median, IQR, percentile and ">= 10 beyond" rule arithmetic."""

import random

import pytest

import loadgen
from loadgen import Op


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert loadgen.percentile(values, 0.0) == 1.0
    assert loadgen.percentile(values, 1.0) == 4.0
    assert loadgen.percentile(values, 0.5) == 2.5
    assert loadgen.percentile(values, 0.25) == pytest.approx(1.75)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        loadgen.percentile([], 0.5)


@pytest.mark.parametrize("n, q, extra", [
    (1000, 0.99, 10), (999, 0.99, 9), (100, 0.90, 10), (99, 0.90, 9),
    (40, 0.75, 10), (39, 0.75, 9), (20, 0.5, 10)])
def test_samples_beyond_a_percentile(n, q, extra):
    assert loadgen.beyond(n, q) == extra


def test_tail_needs_ten_samples_beyond():
    value, reason = loadgen.tail_percentile(list(range(1000)), 0.99)
    assert reason is None and value == pytest.approx(989.01)
    value, reason = loadgen.tail_percentile(list(range(999)), 0.99)
    assert value is None
    assert "999 samples leave 9" in reason


def test_median_and_iqr_match_statistics_quantiles():
    median, iqr = loadgen.median_iqr([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert iqr == pytest.approx(4.5 - 1.5)
    assert loadgen.median_iqr([7.0]) == (7.0, 0.0)


def test_rounds_split_by_start_time():
    ops = [Op("read", start, start + 0.001) for start in
           (9.9, 10.0, 10.4, 10.5, 10.99, 11.0)]
    out = loadgen.rounds(ops, 10.0, 1.0, 2)
    assert [len(r) for r in out] == [2, 2]
    assert out[1][0].start == 10.5


def test_zipf_prefers_low_ranks():
    sample = loadgen.Zipf(50, random.Random(3))
    counts = [0] * 50
    for _ in range(5000):
        counts[sample()] += 1
    assert counts[0] > counts[1] > counts[10] > 0
    assert sum(counts) == 5000
