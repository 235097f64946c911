import pytest

from perfbench.measure import median, summarize, tail_percentile


def test_median_odd_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_needs_ten_samples_beyond():
    # 39 samples: p75 (nearest rank 30) leaves 9 beyond it
    assert tail_percentile([float(i) for i in range(39)]) is None
    xs = [float(i) for i in range(40)]
    # p75 -> rank 30 leaves 10 beyond; p90 -> rank 36 leaves 4
    assert tail_percentile(xs) == (75.0, 29.0)
    xs = [float(i) for i in range(1000)]
    assert tail_percentile(xs) == (99.0, 989.0)


def test_summarize_reports_count_and_tail_only_when_supported():
    assert summarize([1.0, 2.0, 3.0]) == {"median": 2.0, "n": 3}
    s = summarize([float(i) for i in range(40)])
    assert s["n"] == 40 and s["median"] == 19.5 and s["p75"] == 29.0
