"""Tests for the decoding-latency profile and Eq. 2 calibration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.latency import DecodingLatencyProfile


class TestLinearProfile:
    def test_batch_one_is_unit_latency(self):
        assert DecodingLatencyProfile(slope=0.1).latency(1) == pytest.approx(1.0)

    def test_latency_grows_with_batch(self):
        profile = DecodingLatencyProfile(slope=0.1)
        assert profile.latency(5) == pytest.approx(1.4)
        assert profile.latency(9) > profile.latency(5)

    def test_speed_is_inverse_latency(self):
        profile = DecodingLatencyProfile(slope=0.25)
        assert profile.speed(5) == pytest.approx(1.0 / 2.0)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DecodingLatencyProfile().latency(0)

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            DecodingLatencyProfile(slope=-0.1)

    def test_zero_slope_means_perfect_batching(self):
        profile = DecodingLatencyProfile(slope=0.0)
        assert profile.latency(32) == pytest.approx(1.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=256))
    @settings(max_examples=60)
    def test_latency_is_the_linear_model_exactly(self, slope, batch_size):
        """Simulated timings rest on this expression, bit for bit."""
        assert DecodingLatencyProfile(slope=slope).latency(batch_size) == 1.0 + slope * (
            batch_size - 1
        )


class TestCalibration:
    def test_same_batch_is_identity(self):
        profile = DecodingLatencyProfile(slope=0.1)
        assert profile.calibrate(10.0, 4, 4) == pytest.approx(10.0)

    def test_larger_target_batch_increases_duration(self):
        profile = DecodingLatencyProfile(slope=0.1)
        assert profile.calibrate(10.0, 1, 8) > 10.0

    def test_smaller_target_batch_decreases_duration(self):
        profile = DecodingLatencyProfile(slope=0.1)
        assert profile.calibrate(10.0, 8, 1) < 10.0

    def test_round_trip(self):
        profile = DecodingLatencyProfile(slope=0.2)
        there = profile.calibrate(7.0, 2, 6)
        back = profile.calibrate(there, 6, 2)
        assert back == pytest.approx(7.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            DecodingLatencyProfile().calibrate(-1.0, 1, 2)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60)
    def test_calibration_preserves_sign_and_monotonicity(self, slope, b_from, b_to):
        profile = DecodingLatencyProfile(slope=slope)
        calibrated = profile.calibrate(5.0, b_from, b_to)
        assert calibrated > 0
        if b_to > b_from:
            assert calibrated >= 5.0 - 1e-9
        elif b_to < b_from:
            assert calibrated <= 5.0 + 1e-9
