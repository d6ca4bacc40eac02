import pytest

from perfbench import stats


def test_nearest_rank_percentile_returns_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 1) == 1.0
    assert stats.percentile(list(range(1, 101)), 99) == 99


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    for n in (20, 100, 1000, 10000):
        assert stats.beyond(n, stats.tail_percentile(n)) >= stats.MIN_BEYOND


def test_summarize_reports_n_and_supported_tail():
    values = [float(v) for v in range(1, 1001)]
    summary = stats.summarize(values, scale=1e3)
    assert summary["n"] == 1000
    assert summary["p50"] == 500e3
    assert summary["tail_q"] == 99.0
    assert summary["tail"] == 990e3
    assert "tail" not in stats.summarize([1.0, 2.0])
    assert stats.summarize([]) == {"n": 0}


def test_median_of_even_and_odd_samples():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
