"""Historical per-application priors used by the duration-based baselines.

The paper gives every baseline the same prior information: "the average
duration and resource requirements for each application on its dataset".
:class:`ApplicationPriors` captures that — per-application mean job duration
estimated from offline samples — and provides the simple remaining-duration
estimate (mean minus observed progress) that SJF/SRTF-style baselines use.
LLMSched replaces these static estimates with Bayesian posterior updates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from repro.dag.application import ApplicationTemplate
from repro.dag.job import Job
from repro.utils.rng import make_rng

__all__ = ["ApplicationPriors"]

_MIN_REMAINING = 1e-3


class ApplicationPriors:
    """Mean job duration per application, estimated from offline samples."""

    def __init__(self, mean_durations: Mapping[str, float]) -> None:
        cleaned: Dict[str, float] = {}
        for name, value in mean_durations.items():
            if value <= 0:
                raise ValueError(f"mean duration for {name!r} must be > 0")
            cleaned[name] = float(value)
        self._mean_durations = cleaned

    # ------------------------------------------------------------------ #
    @classmethod
    def from_applications(
        cls,
        applications: Iterable[ApplicationTemplate],
        n_samples: int = 100,
        seed: int = 1234,
    ) -> "ApplicationPriors":
        """Estimate priors by sampling jobs from each application offline."""
        rng = make_rng(seed)
        means = {
            app.name: app.estimate_mean_duration(rng, n_samples=n_samples)
            for app in applications
        }
        return cls(means)

    # ------------------------------------------------------------------ #
    def mean_duration(self, application: str) -> float:
        """Historical mean total work of one job of ``application``."""
        if application not in self._mean_durations:
            raise KeyError(f"no prior for application {application!r}")
        return self._mean_durations[application]

    def knows(self, application: str) -> bool:
        return application in self._mean_durations

    def estimate_total(self, job: Job) -> float:
        """Estimated total work of a job (the application's historical mean)."""
        if not self.knows(job.application):
            # Unknown application: fall back to the global mean prior.
            return float(np.mean(list(self._mean_durations.values())))
        return self.mean_duration(job.application)

    def estimate_remaining(self, job: Job) -> float:
        """Estimated remaining work: historical mean minus observed progress."""
        observed = sum(job.observed_durations().values())
        return max(_MIN_REMAINING, self.estimate_total(job) - observed)
