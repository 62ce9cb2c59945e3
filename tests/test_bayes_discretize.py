"""Tests for duration discretisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.discretize import DiscretizationSpec, Discretizer


class TestFit:
    def test_max_intervals_respected(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(1.0, 100.0, 500)
        spec = Discretizer(max_intervals=6).fit(samples)
        assert spec.cardinality <= 6
        assert not spec.has_zero_state

    def test_zero_state_reserved_when_zeros_present(self):
        samples = [0.0, 0.0, 5.0, 6.0, 7.0, 8.0]
        spec = Discretizer(max_intervals=3, zero_state=True).fit(samples)
        assert spec.has_zero_state
        assert spec.representatives[0] == 0.0

    def test_all_zero_samples(self):
        spec = Discretizer(zero_state=True).fit([0.0, 0.0, 0.0])
        assert spec.cardinality == 1
        assert spec.representatives == (0.0,)

    def test_constant_positive_samples_single_interval(self):
        spec = Discretizer(max_intervals=6).fit([5.0] * 20)
        assert spec.cardinality == 1
        assert spec.representatives[0] == pytest.approx(5.0)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            Discretizer().fit([-1.0, 2.0])

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Discretizer().fit([])

    def test_invalid_max_intervals(self):
        with pytest.raises(ValueError):
            Discretizer(max_intervals=0)


class TestTransform:
    def test_round_trip_training_samples_in_range(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(20.0, 300)
        discretizer = Discretizer(max_intervals=6)
        spec, states = discretizer.fit_transform(samples)
        assert min(states) >= 0
        assert max(states) < spec.cardinality

    def test_monotone_mapping(self):
        samples = list(np.linspace(1, 100, 200))
        discretizer = Discretizer(max_intervals=5)
        spec = discretizer.fit(samples)
        states = [discretizer.transform(v, spec) for v in samples]
        assert states == sorted(states)

    def test_out_of_range_values_clamped(self):
        discretizer = Discretizer(max_intervals=4)
        spec = discretizer.fit(list(np.linspace(10, 20, 100)))
        assert discretizer.transform(0.5, spec) == (1 if spec.has_zero_state else 0)
        assert discretizer.transform(1000.0, spec) == spec.cardinality - 1

    def test_zero_maps_to_zero_state(self):
        discretizer = Discretizer(max_intervals=4, zero_state=True)
        spec = discretizer.fit([0.0, 1.0, 2.0, 3.0, 4.0])
        assert discretizer.transform(0.0, spec) == 0
        assert discretizer.transform(2.5, spec) > 0

    def test_representative_lookup(self):
        discretizer = Discretizer(max_intervals=3)
        spec = discretizer.fit([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        rep = Discretizer.representative(0, spec)
        assert rep > 0


class TestValueRange:
    def test_range_spans_representatives(self):
        spec = DiscretizationSpec(edges=(0.0, 1.0, 2.0), representatives=(0.0, 0.5, 1.5), has_zero_state=True)
        assert spec.value_range == pytest.approx(1.5)

    def test_single_state_range_zero(self):
        spec = DiscretizationSpec(edges=(0.0, 0.0), representatives=(0.0,), has_zero_state=True)
        assert spec.value_range == 0.0


class TestProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_training_sample_maps_to_valid_state(self, samples, k):
        discretizer = Discretizer(max_intervals=k, zero_state=True)
        spec = discretizer.fit(samples)
        for value in samples:
            state = discretizer.transform(value, spec)
            assert 0 <= state < spec.cardinality

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_duration_maps_below_cardinality(self, samples, k, zero_state, values):
        """Unseen durations too, including any positive one under a spec
        fitted to all-zero samples (a stage never seen running)."""
        spec = Discretizer(max_intervals=k, zero_state=zero_state).fit(samples)
        for value in values:
            assert 0 <= Discretizer.transform(value, spec) < spec.cardinality

    def test_positive_duration_under_all_zero_spec(self):
        spec = Discretizer(zero_state=True).fit([0.0, 0.0])
        assert Discretizer.transform(3.5, spec) == 0

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_representatives_sorted_for_positive_samples(self, samples):
        discretizer = Discretizer(max_intervals=6)
        spec = discretizer.fit(samples)
        reps = list(spec.representatives)
        assert reps == sorted(reps)
