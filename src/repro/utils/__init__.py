"""Shared utilities: deterministic RNG management, statistics, validation."""

from repro.utils.rng import make_rng
from repro.utils.stats import (
    OnlineStats,
    histogram_probabilities,
    pearson_correlation,
    pearson_correlation_matrix,
    summarize,
)

__all__ = [
    "make_rng",
    "OnlineStats",
    "histogram_probabilities",
    "pearson_correlation",
    "pearson_correlation_matrix",
    "summarize",
]
