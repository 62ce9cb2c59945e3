"""Shared utilities: deterministic RNG management, statistics, validation."""

from repro.utils.rng import RngMixin, derive_rng, make_rng
from repro.utils.stats import (
    OnlineStats,
    histogram_probabilities,
    pearson_correlation,
    pearson_correlation_matrix,
    summarize,
)

__all__ = [
    "RngMixin",
    "derive_rng",
    "make_rng",
    "OnlineStats",
    "histogram_probabilities",
    "pearson_correlation",
    "pearson_correlation_matrix",
    "summarize",
]
