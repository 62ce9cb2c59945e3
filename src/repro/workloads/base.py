"""Shared building blocks for the application generators.

The paper's workload characterisation (Section III) shows that compound LLM
applications have (a) heavy-tailed, widely varying job durations driven by
autoregressive generation and (b) strong inter-stage duration correlations
caused by shared job-level factors (input length, task difficulty).  The
helpers here encode that pattern: each job draws a latent factor from its
dataset query, and every LLM stage's duration scales with that factor times
independent lognormal noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["sample_lognormal", "LatentScaledDuration", "sample_truncated_geometric"]


def sample_lognormal(
    rng: np.random.Generator,
    mean: float,
    sigma: float = 0.35,
    minimum: float = 0.05,
) -> float:
    """Sample a heavy-tailed positive duration with the given mean.

    The underlying normal is parameterised so that the lognormal's mean is
    ``mean`` (not its median), which keeps historical-average estimates used
    by SJF-style baselines consistent with the generator.
    """
    require_positive(mean, "mean")
    require_non_negative(sigma, "sigma")
    if sigma == 0.0:
        return max(minimum, mean)
    mu = np.log(mean) - 0.5 * sigma**2
    return float(max(minimum, rng.lognormal(mu, sigma)))


def sample_truncated_geometric(
    rng: np.random.Generator,
    continue_probability: float,
    minimum: int,
    maximum: int,
) -> int:
    """Sample the number of iterations of a chain-like application.

    Starting at ``minimum``, each additional iteration happens with
    ``continue_probability`` until ``maximum`` is reached.  This matches the
    paper's observation that chain lengths concentrate near the minimum with
    a tail up to the configured cap (Fig. 1b).
    """
    if not 0.0 <= continue_probability <= 1.0:
        raise ValueError("continue_probability must be within [0, 1]")
    if minimum > maximum:
        raise ValueError("minimum must be <= maximum")
    count = minimum
    while count < maximum and rng.random() < continue_probability:
        count += 1
    return count


@dataclass(frozen=True)
class LatentScaledDuration:
    """Duration model: ``base + scale_per_unit * latent``, with lognormal noise.

    Stages of the same job share the latent factor, which is what produces
    the strong Pearson correlations of the paper's Fig. 5 heatmaps.
    """

    base: float
    scale_per_unit: float = 0.0
    noise_sigma: float = 0.25

    def __post_init__(self) -> None:
        require_non_negative(self.base, "base")
        require_non_negative(self.scale_per_unit, "scale_per_unit")
        require_non_negative(self.noise_sigma, "noise_sigma")

    def sample(self, rng: np.random.Generator, latent: float = 0.0) -> float:
        """Sample one duration for a job with the given latent factor."""
        require_non_negative(latent, "latent")
        mean = self.base + self.scale_per_unit * latent
        if mean <= 0:
            return 0.0
        return sample_lognormal(rng, mean, self.noise_sigma)

    def mean(self, latent: float = 0.0) -> float:
        """Expected duration for the given latent factor (noise averages out)."""
        return self.base + self.scale_per_unit * latent
