"""Tests for batching-aware duration calibration (Eq. 2)."""

import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.simulator.latency import DecodingLatencyProfile


class TestBatchingAwareCalibrator:
    def test_identity_at_profiled_batch(self):
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.1))
        assert calibrator.calibrate(10.0, 1) == pytest.approx(10.0)

    def test_larger_batch_inflates_duration(self):
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.1))
        assert calibrator.calibrate(10.0, 6) == pytest.approx(15.0)

    def test_fractional_target_batch_rounded(self):
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.1))
        assert calibrator.calibrate(10.0, 2.4) == pytest.approx(
            calibrator.calibrate(10.0, 2)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BatchingAwareCalibrator().calibrate(-1.0, 2)
