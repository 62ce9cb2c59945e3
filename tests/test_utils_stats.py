"""Tests for statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    OnlineStats,
    histogram_probabilities,
    pearson_correlation,
    pearson_correlation_matrix,
    percentile_summary,
    summarize,
)


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 6.0, 8.0]
        assert pearson_correlation(xs, ys) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        ys = [3.0, 2.0, 1.0]
        assert pearson_correlation(xs, ys) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self):
        assert pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 2.0], [1.0])

    def test_single_sample_returns_zero(self):
        assert pearson_correlation([1.0], [2.0]) == 0.0

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30),
    )
    @settings(max_examples=50)
    def test_bounded_in_unit_interval(self, xs):
        ys = [x * 2 + 1 for x in xs]
        value = pearson_correlation(xs, ys)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestCorrelationMatrix:
    def test_diagonal_is_one_and_symmetric(self):
        columns = {"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0, 5.0], "c": [3.0, 1.0, 2.0]}
        matrix = pearson_correlation_matrix(columns)
        for name in columns:
            assert matrix[name][name] == 1.0
        for a in columns:
            for b in columns:
                assert matrix[a][b] == pytest.approx(matrix[b][a])


class TestHistogramProbabilities:
    def test_masses_sum_to_one(self):
        probs = histogram_probabilities([1, 2, 3, 4, 5], [0, 2, 4, 6])
        assert sum(probs) == pytest.approx(1.0)

    def test_out_of_range_values_clipped(self):
        probs = histogram_probabilities([-10, 100], [0, 1, 2])
        assert sum(probs) == pytest.approx(1.0)

    def test_empty_values(self):
        assert histogram_probabilities([], [0, 1, 2]) == [0.0, 0.0]

    def test_bad_edges_raise(self):
        with pytest.raises(ValueError):
            histogram_probabilities([1.0], [3, 2, 1])
        with pytest.raises(ValueError):
            histogram_probabilities([1.0], [1])


class TestOnlineStats:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(np.mean(values))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_mean_within_min_max(self, values):
        stats = OnlineStats()
        welford = 0.0
        for count, value in enumerate(values, 1):
            stats.add(value)
            delta = value - welford
            welford += delta / count
        assert min(values) - 1e-6 <= stats.mean <= max(values) + 1e-6
        # The mean is Welford's update, bit for bit (metrics report it).
        assert stats.mean == welford


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary["count"] == 0.0
        assert math.isnan(summary["mean"])

    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0


class TestPercentileSummary:
    def test_empty_is_nan_with_zero_count(self):
        summary = percentile_summary([])
        assert summary["count"] == 0.0
        assert math.isnan(summary["mean"]) and math.isnan(summary["p95"])

    def test_matches_numpy(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        summary = percentile_summary(values)
        assert summary["count"] == 5.0
        assert summary["mean"] == pytest.approx(5.0)
        for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
            assert summary[key] == pytest.approx(np.percentile(values, q))

    def test_non_integer_percentile_key(self):
        summary = percentile_summary([1.0, 2.0], percentiles=(99.9,))
        assert "p99.9" in summary

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_percentiles_bounded_by_extremes(self, values):
        summary = percentile_summary(values)
        assert min(values) - 1e-6 <= summary["p50"] <= max(values) + 1e-6
        assert summary["p50"] <= summary["p95"] + 1e-6 <= summary["p99"] + 2e-6
