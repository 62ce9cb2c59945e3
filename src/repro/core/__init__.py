"""LLMSched — the paper's primary contribution.

* :mod:`~repro.core.profiler` — the Bayesian-network profiler: learns
  per-application stage-duration networks from offline traces, updates
  posterior duration estimates from completed-stage evidence, and exposes
  the correlated-stage queries needed to identify uncertainty-reducing
  stages.
* :mod:`~repro.core.calibration` — batching-aware duration calibration
  (paper Eq. 2).
* :mod:`~repro.core.uncertainty` — the entropy-based uncertainty
  quantification of stages and the uncertainty-reduction score R(X)
  (paper Eq. 3-6).
* :mod:`~repro.core.llmsched` — the uncertainty-aware scheduler
  (paper Algorithm 1).
"""

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.profiler import ApplicationProfile, BayesianProfiler
from repro.core.uncertainty import UncertaintyQuantifier
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler

__all__ = [
    "BatchingAwareCalibrator",
    "ApplicationProfile",
    "BayesianProfiler",
    "UncertaintyQuantifier",
    "LLMSchedConfig",
    "LLMSchedScheduler",
]
