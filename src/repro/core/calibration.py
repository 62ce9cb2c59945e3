"""Batching-aware duration calibration (paper Eq. 2).

LLM task durations are profiled at some reference batch size but executed at
whatever batch size the cluster happens to be running; the calibrator
rescales estimates by the ratio of the profiled per-token decoding
latencies:  ``d_t = d_r * l(b_t) / l(b_r)``.
"""

from __future__ import annotations

from typing import Optional

from repro.simulator.latency import DecodingLatencyProfile

__all__ = ["BatchingAwareCalibrator"]


class BatchingAwareCalibrator:
    """Rescales LLM duration estimates to the cluster's current batch size.

    Parameters
    ----------
    latency_profile:
        The measured batch-size → decoding-latency profile.  Defaults to the
        same profile the simulator uses, which corresponds to the paper's
        setup where the profiling pass and the simulator share measurements.
    profiled_batch_size:
        The batch size at which the historical durations were recorded
        (the paper profiles applications with batch size 1).
    """

    def __init__(
        self,
        latency_profile: Optional[DecodingLatencyProfile] = None,
        profiled_batch_size: int = 1,
    ) -> None:
        if profiled_batch_size < 1:
            raise ValueError("profiled_batch_size must be >= 1")
        self.latency_profile = latency_profile or DecodingLatencyProfile()
        self.profiled_batch_size = int(profiled_batch_size)

    # ------------------------------------------------------------------ #
    def calibrate(self, duration: float, target_batch_size: float) -> float:
        """Rescale ``duration`` from the profiled batch size to the target one."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        target = max(1, int(round(target_batch_size)))
        return self.latency_profile.calibrate(duration, self.profiled_batch_size, target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchingAwareCalibrator(profiled_batch_size={self.profiled_batch_size})"
        )
