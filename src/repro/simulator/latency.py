"""Batch-size → decoding-latency profile.

The paper profiles the per-token decoding latency of the serving engine at
different batch sizes and uses it both in the simulator (to rescale the
remaining duration of running LLM tasks when the batch changes) and in the
batching-aware duration calibration of Eq. 2.

Batching on modern serving stacks is throughput-friendly: doubling the batch
raises per-token latency far less than 2x.  The profile uses a linear
per-token latency growth ``l(b) = 1 + slope * (b - 1)`` which matches the
near-linear curves reported for vLLM-style continuous batching at
moderate batch sizes.
"""

from __future__ import annotations

__all__ = ["DecodingLatencyProfile"]


class DecodingLatencyProfile:
    """Relative per-token decoding latency as a function of batch size.

    ``latency(1)`` is normalised to 1.0: an LLM task's ``work`` is expressed
    in seconds at batch size 1, and progresses at rate ``speed(b) =
    latency(1) / latency(b)`` when it shares the batch with ``b - 1`` other
    requests.
    """

    def __init__(self, slope: float = 0.06) -> None:
        if slope < 0:
            raise ValueError("slope must be >= 0")
        self._slope = float(slope)

    # ------------------------------------------------------------------ #
    def latency(self, batch_size: int) -> float:
        """Relative per-token latency at the given batch size (>= 1.0)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return 1.0 + self._slope * (batch_size - 1)

    def speed(self, batch_size: int) -> float:
        """Progress rate of one task when sharing a batch of ``batch_size``."""
        return 1.0 / self.latency(batch_size)

    def calibrate(self, duration: float, observed_batch: int, target_batch: int) -> float:
        """Batching-aware duration calibration (paper Eq. 2).

        Rescales a duration measured (or profiled) at ``observed_batch`` to
        the expected duration at ``target_batch``.
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        return duration * self.latency(target_batch) / self.latency(observed_batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodingLatencyProfile(slope={self._slope})"
