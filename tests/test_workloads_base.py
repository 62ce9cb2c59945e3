"""Tests for workload building blocks and synthetic datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import make_rng
from repro.workloads.base import (
    LatentScaledDuration,
    sample_lognormal,
    sample_truncated_geometric,
)
from repro.workloads.datasets import (
    HotpotQaLikeDataset,
    MbppLikeDataset,
    Query,
    SyntheticSequenceDataset,
    TaskBenchLikeDataset,
)


class TestSampleLognormal:
    def test_mean_is_approximately_preserved(self):
        rng = make_rng(0)
        samples = [sample_lognormal(rng, 10.0, sigma=0.4) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.1)

    def test_zero_sigma_returns_mean(self):
        rng = make_rng(0)
        assert sample_lognormal(rng, 5.0, sigma=0.0) == 5.0

    def test_minimum_enforced(self):
        rng = make_rng(0)
        assert all(
            sample_lognormal(rng, 0.1, sigma=1.0, minimum=0.05) >= 0.05 for _ in range(100)
        )

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_lognormal(make_rng(0), 0.0)

    @given(st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_always_positive(self, mean, sigma):
        value = sample_lognormal(make_rng(1), mean, sigma)
        assert value > 0


class TestTruncatedGeometric:
    def test_bounds_respected(self):
        rng = make_rng(0)
        values = [sample_truncated_geometric(rng, 0.5, 2, 6) for _ in range(500)]
        assert min(values) >= 2
        assert max(values) <= 6

    def test_zero_probability_returns_minimum(self):
        rng = make_rng(0)
        assert sample_truncated_geometric(rng, 0.0, 3, 10) == 3

    def test_probability_one_returns_maximum(self):
        rng = make_rng(0)
        assert sample_truncated_geometric(rng, 1.0, 3, 10) == 10

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_geometric(make_rng(0), 0.5, 5, 3)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_geometric(make_rng(0), 1.5, 0, 3)


class TestLatentScaledDuration:
    def test_samples_correlate_with_latent(self):
        model = LatentScaledDuration(base=0.5, scale_per_unit=1.0, noise_sigma=0.2)
        rng = make_rng(0)
        low = np.mean([model.sample(rng, 1.0) for _ in range(300)])
        high = np.mean([model.sample(rng, 20.0) for _ in range(300)])
        assert high > low * 5

    def test_negative_latent_rejected(self):
        model = LatentScaledDuration(base=1.0)
        with pytest.raises(ValueError):
            model.sample(make_rng(0), -1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatentScaledDuration(base=-1.0)

    def test_nan_noise_rejected(self):
        # It used to validate, and every sample was then the 0.05 s floor.
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            LatentScaledDuration(base=3.0, scale_per_unit=1.0, noise_sigma=float("nan"))


class TestQuery:
    def test_invalid_difficulty_rejected(self):
        with pytest.raises(ValueError):
            Query(query_id=0, size=1.0, difficulty=2.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Query(query_id=0, size=-1.0, difficulty=0.5)


class TestDatasets:
    @pytest.mark.parametrize(
        "dataset_cls,expected_size",
        [
            (SyntheticSequenceDataset, 500),
            (MbppLikeDataset, 974),
            (HotpotQaLikeDataset, 1200),
            (TaskBenchLikeDataset, 2000),
        ],
    )
    def test_default_sizes(self, dataset_cls, expected_size):
        assert len(dataset_cls()) == expected_size

    def test_deterministic_generation(self):
        a = SyntheticSequenceDataset(size=50, seed=7)
        b = SyntheticSequenceDataset(size=50, seed=7)
        assert [q.size for q in a] == [q.size for q in b]

    def test_sequence_lengths_in_paper_range(self):
        dataset = SyntheticSequenceDataset()
        sizes = [q.size for q in dataset]
        assert min(sizes) >= 16
        assert max(sizes) <= 64

    def test_taskbench_plan_sizes_in_range(self):
        dataset = TaskBenchLikeDataset()
        sizes = [q.size for q in dataset]
        assert min(sizes) >= 1
        assert max(sizes) <= 8

    def test_hotpot_hops_in_range(self):
        dataset = HotpotQaLikeDataset()
        sizes = [q.size for q in dataset]
        assert min(sizes) >= 2
        assert max(sizes) <= 6

    def test_sampling_uses_rng(self):
        dataset = MbppLikeDataset(size=100)
        rng = make_rng(0)
        ids = {dataset.sample(rng).query_id for _ in range(50)}
        assert len(ids) > 5

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSequenceDataset(size=0)

    def test_indexing(self):
        dataset = MbppLikeDataset(size=10)
        assert dataset[0].query_id == 0
