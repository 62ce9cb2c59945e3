"""Entropy-based uncertainty quantification (paper Section IV-C).

The paper characterises each stage type with a random variable and uses its
Shannon entropy as the stage's uncertainty:

* a **regular stage** is a Bernoulli variable over whether it executes
  (its duration is assumed stable),
* an **LLM stage** is a categorical variable over k duration intervals plus
  a "not executed" state,
* a **dynamic stage** is the sum of the selection entropies of its candidate
  stages and candidate edges (Eq. 4, provided by
  :func:`repro.dag.dynamic.dynamic_stage_entropy`).

The uncertainty *reduction* of scheduling a stage (Eq. 5-6) additionally
needs the learned Bayesian network, so it lives on
:class:`repro.core.profiler.BayesianProfiler`; the
:class:`UncertaintyQuantifier` here is a thin façade combining both views
for users of the public API.
"""

from __future__ import annotations

from typing import Sequence

from repro.bayes.information import binary_entropy, entropy_of_distribution
from repro.core.profiler import BayesianProfiler
from repro.dag.job import Job
from repro.dag.stage import Stage, StageType

__all__ = ["regular_stage_entropy", "llm_stage_entropy", "UncertaintyQuantifier"]


def regular_stage_entropy(execution_probability: float) -> float:
    """Uncertainty of a regular stage: entropy of its execution indicator."""
    return binary_entropy(execution_probability)


def llm_stage_entropy(interval_probabilities: Sequence[float]) -> float:
    """Uncertainty of an LLM stage.

    ``interval_probabilities`` is the distribution over the k duration
    intervals plus the non-execution (duration 0) state, i.e. k+1 values.
    """
    return entropy_of_distribution(interval_probabilities)


class UncertaintyQuantifier:
    """Per-stage uncertainty and uncertainty-reduction queries.

    Wraps a fitted :class:`BayesianProfiler` so callers can ask for the
    entropy of a stage's duration belief and for the paper's R(X) score
    without touching the profiler internals.
    """

    def __init__(self, profiler: BayesianProfiler) -> None:
        self._profiler = profiler

    # ------------------------------------------------------------------ #
    def stage_entropy(self, job: Job, stage: Stage) -> float:
        """Current uncertainty (bits) of one stage of a job."""
        if stage.stage_type is StageType.DYNAMIC:
            profile = self._profiler.profile_for(job.application)
            info = profile.dynamic_info.get(stage.profile_key)
            if info is None:
                return 0.0
            _, entropy, _ = info
            return entropy
        profile = self._profiler.profile_for(job.application)
        if stage.profile_key not in profile.specs:
            return 0.0
        evidence = self._profiler.evidence_for(job)
        if stage.profile_key in evidence:
            return 0.0
        marginal = self._profiler.posterior_marginals(job.application, evidence)[stage.profile_key]
        return entropy_of_distribution(marginal)

    def uncertainty_reduction(self, job: Job, stage: Stage) -> float:
        """R(X) — Eq. 6 — of scheduling ``stage`` now."""
        return self._profiler.uncertainty_reduction(job, stage.profile_key)

    def is_uncertainty_reducing(self, job: Job, stage: Stage) -> bool:
        return self._profiler.is_uncertainty_reducing(job.application, stage.profile_key)
