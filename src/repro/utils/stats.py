"""Small statistics helpers used across the library.

The heatmap experiment (paper Fig. 5) needs Pearson correlation matrices, the
profiler needs empirical histograms, and the metrics module needs a streaming
mean and percentile summaries.  Everything here operates on plain sequences or
numpy arrays and has no dependency on the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "OnlineStats",
    "pearson_correlation",
    "pearson_correlation_matrix",
    "histogram_probabilities",
    "summarize",
    "percentile_summary",
]


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Returns 0.0 when either sequence is (numerically) constant, which is the
    convention the heatmap plots need: a stage whose duration never varies
    carries no correlation signal.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        return 0.0
    sx = x.std()
    sy = y.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def pearson_correlation_matrix(columns: Dict[str, Sequence[float]]) -> Dict[str, Dict[str, float]]:
    """Pairwise Pearson correlations between named columns.

    The result is a nested mapping ``matrix[a][b]`` mirroring the stage-ID
    heatmap in the paper's Fig. 5.
    """
    names = list(columns)
    matrix: Dict[str, Dict[str, float]] = {}
    for a in names:
        matrix[a] = {}
        for b in names:
            if a == b:
                matrix[a][b] = 1.0
            else:
                matrix[a][b] = pearson_correlation(columns[a], columns[b])
    return matrix


def histogram_probabilities(
    values: Sequence[float],
    bin_edges: Sequence[float],
) -> List[float]:
    """Empirical probability mass of ``values`` within consecutive bins.

    ``bin_edges`` must be increasing; values outside the range are clipped to
    the first/last bin so the masses always sum to 1 for non-empty input.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("bin_edges must contain at least two edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing")
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return [0.0] * (edges.size - 1)
    clipped = np.clip(data, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return list(counts / data.size)


@dataclass
class OnlineStats:
    """Streaming count and mean."""

    count: int = 0
    mean: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.mean += (float(value) - self.mean) / self.count


def percentile_summary(
    values: Sequence[float],
    percentiles: Sequence[float] = (50.0, 95.0, 99.0),
) -> Dict[str, float]:
    """count / mean / pXX summary of a latency-sample sequence.

    The single percentile implementation behind every serving-latency
    surface (Result ``serving`` block, the ``pareto`` CLI, benchmark
    writers, the regression gate) so their numbers agree bit-for-bit.
    Percentile keys are formatted ``p50`` / ``p99.9`` (trailing ``.0``
    dropped).  Empty input yields ``count == 0`` and NaNs.
    """
    arr = np.asarray(list(values), dtype=float)

    def _key(q: float) -> str:
        return f"p{int(q)}" if float(q).is_integer() else f"p{q}"

    if arr.size == 0:
        out = {"count": 0.0, "mean": float("nan")}
        out.update({_key(q): float("nan") for q in percentiles})
        return out
    out = {"count": float(arr.size), "mean": float(arr.mean())}
    for q in percentiles:
        out[_key(q)] = float(np.percentile(arr, q))
    return out


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """One-shot summary (count / mean / std / min / p50 / p95 / max)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {
            "count": 0.0,
            "mean": float("nan"),
            "std": float("nan"),
            "min": float("nan"),
            "p50": float("nan"),
            "p95": float("nan"),
            "max": float("nan"),
        }
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }
