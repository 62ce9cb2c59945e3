"""Duration discretisation.

The paper discretises every stage's duration distribution into up to six
intervals based on frequency (equal-mass quantile bins), with one extra state
reserved for "not executed" (duration 0) when the stage may be skipped — this
is how chain-like applications with variable length are handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["DiscretizationSpec", "Discretizer"]

_ZERO_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DiscretizationSpec:
    """The result of fitting a discretiser to one stage's duration samples.

    Attributes
    ----------
    edges:
        Interval boundaries for the positive-duration states (length
        ``n_intervals + 1``).  ``edges[i] <= value < edges[i + 1]`` maps to
        positive state ``i``.
    representatives:
        Numeric representative (mean of training samples) for every state,
        including the leading zero state when present.
    has_zero_state:
        Whether state 0 is reserved for "not executed" (duration 0).
    """

    edges: tuple
    representatives: tuple
    has_zero_state: bool

    @property
    def cardinality(self) -> int:
        return len(self.representatives)

    @property
    def value_range(self) -> float:
        """Spread between the largest and smallest representative duration.

        This is the ``Range(Y)`` term of the paper's uncertainty-reduction
        formula (Eq. 6).
        """
        if not self.representatives:
            return 0.0
        return float(max(self.representatives) - min(self.representatives))


class Discretizer:
    """Frequency-based discretiser for stage durations.

    Parameters
    ----------
    max_intervals:
        Maximum number of positive-duration intervals (paper default 6).
    zero_state:
        When True, duration 0 ("stage not executed") gets a dedicated state 0
        and only strictly positive samples are used to build the intervals.
    """

    def __init__(self, max_intervals: int = 6, zero_state: bool = False) -> None:
        if max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        self.max_intervals = int(max_intervals)
        self.zero_state = bool(zero_state)

    def fit(self, samples: Sequence[float]) -> DiscretizationSpec:
        """Build a :class:`DiscretizationSpec` from duration samples."""
        data = np.asarray(list(samples), dtype=float)
        if data.size == 0:
            raise ValueError("cannot fit a discretizer to zero samples")
        if np.any(data < -_ZERO_TOLERANCE):
            raise ValueError("durations must be non-negative")
        data = np.clip(data, 0.0, None)

        positive = data[data > _ZERO_TOLERANCE]
        use_zero_state = self.zero_state and (positive.size < data.size or positive.size == 0)

        if positive.size == 0:
            # Degenerate: the stage never executes (or always takes 0 s).
            return DiscretizationSpec(edges=(0.0, 0.0), representatives=(0.0,), has_zero_state=True)

        unique_values = np.unique(positive)
        n_intervals = int(min(self.max_intervals, unique_values.size))
        if n_intervals == 1:
            edges = np.array([float(unique_values[0]), float(unique_values[-1]) + _ZERO_TOLERANCE])
        else:
            quantiles = np.linspace(0.0, 1.0, n_intervals + 1)
            edges = np.quantile(positive, quantiles)
            edges = np.unique(edges)
            if edges.size < 2:
                edges = np.array([float(positive.min()), float(positive.max()) + _ZERO_TOLERANCE])
            # Make the final edge exclusive-safe so the max sample falls in the
            # last interval.
            edges = edges.astype(float)
            edges[-1] = edges[-1] + max(_ZERO_TOLERANCE, abs(edges[-1]) * 1e-9)
        n_intervals = edges.size - 1

        # Representative duration of each interval: mean of the samples inside
        # it (falling back to the midpoint for empty intervals).
        reps: List[float] = []
        for i in range(n_intervals):
            low, high = edges[i], edges[i + 1]
            if i == n_intervals - 1:
                members = positive[(positive >= low) & (positive <= high)]
            else:
                members = positive[(positive >= low) & (positive < high)]
            if members.size:
                reps.append(float(members.mean()))
            else:
                reps.append(float((low + high) / 2.0))

        if use_zero_state:
            representatives = (0.0, *reps)
        else:
            representatives = tuple(reps)
        return DiscretizationSpec(
            edges=tuple(float(e) for e in edges),
            representatives=representatives,
            has_zero_state=use_zero_state,
        )

    @staticmethod
    def transform(value: float, spec: DiscretizationSpec) -> int:
        """Map a duration to its discrete state index under ``spec``.

        Always below ``spec.cardinality``: a spec fitted to all-zero samples
        (a stage never seen running) has only its zero state, so every
        duration maps there.
        """
        value = float(value)
        if value < -_ZERO_TOLERANCE:
            raise ValueError("durations must be non-negative")
        if spec.has_zero_state and value <= _ZERO_TOLERANCE:
            return 0
        offset = 1 if spec.has_zero_state else 0
        edges = spec.edges
        n_intervals = len(spec.representatives) - offset  # positive states
        if n_intervals <= 0:
            return 0
        if value <= edges[0]:
            return offset
        if value >= edges[-1]:
            return offset + n_intervals - 1
        index = int(np.searchsorted(np.asarray(edges), value, side="right") - 1)
        index = min(max(index, 0), n_intervals - 1)
        return offset + index

    @staticmethod
    def representative(state: int, spec: DiscretizationSpec) -> float:
        """Representative duration of a state index."""
        return float(spec.representatives[int(state)])

    def fit_transform(self, samples: Sequence[float]) -> tuple:
        """Fit a spec and return ``(spec, states)`` for the training samples."""
        spec = self.fit(samples)
        states = [self.transform(v, spec) for v in samples]
        return spec, states
