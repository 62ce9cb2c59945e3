"""Decima — a learned DAG scheduler (Mao et al., SIGCOMM 2019), simplified.

The original Decima encodes the job DAGs with a graph neural network and
trains an actor with reinforcement learning; at every scheduling event it
picks *one stage* and a parallelism limit for it.  Training a GNN is out of
scope for an offline CPU-only reproduction, so this module keeps the two
properties of Decima that drive its behaviour in the paper's comparison:

* the policy scores stages from DAG/duration features learned on the target
  workloads (not hand-set priorities), and
* it commits the available capacity to one stage at a time, which is exactly
  why it under-utilises the cluster on planning workloads with many small
  parallel stages (the effect the paper reports).

The policy is linear in the stage features.  Its default weights were
found offline by a cross-entropy method (a derivative-free policy search)
run directly against average JCT in the simulator; the search itself is
not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dag.job import Job
from repro.dag.stage import Stage
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision
from repro.schedulers.priors import ApplicationPriors

__all__ = ["DecimaPolicy", "DecimaScheduler"]

#: Feature order used by :meth:`DecimaPolicy.score`.
FEATURE_NAMES = [
    "job_remaining_estimate",
    "job_age",
    "stage_pending_tasks",
    "stage_depth",
    "stage_children",
    "stage_is_llm",
]

#: Weights found by the cross-entropy-method search on the four workload
#: types (seed 0, 12 iterations); shipping them lets the scheduler work out
#: of the box.
DEFAULT_WEIGHTS = (-0.55, 0.25, -0.35, 0.45, 0.4, -0.1)


@dataclass
class DecimaPolicy:
    """A linear scoring policy over per-stage features."""

    weights: Sequence[float] = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if len(self.weights) != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} weights, got {len(self.weights)}"
            )
        self.weights = tuple(float(w) for w in self.weights)

    # ------------------------------------------------------------------ #
    @staticmethod
    def features(
        job: Job, stage: Stage, context: SchedulingContext, priors: ApplicationPriors
    ) -> np.ndarray:
        """Normalised feature vector of one schedulable stage."""
        remaining = priors.estimate_remaining(job)
        age = max(0.0, context.time - job.arrival_time)
        return np.array(
            [
                np.log1p(remaining),
                np.log1p(age),
                np.log1p(len(stage.pending_tasks())),
                float(job.stage_depth(stage.stage_id)),
                float(len(job.children(stage.stage_id))),
                1.0 if stage.is_llm else 0.0,
            ]
        )

    def score(
        self, job: Job, stage: Stage, context: SchedulingContext, priors: ApplicationPriors
    ) -> float:
        return float(np.dot(np.asarray(self.weights), self.features(job, stage, context, priors)))


class DecimaScheduler(Scheduler):
    """Stage-at-a-time scheduling driven by a learned scoring policy."""

    name = "decima"

    def __init__(self, priors: ApplicationPriors) -> None:
        self._priors = priors
        self._policy = DecimaPolicy()

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        scored: List[tuple] = []
        for job in context.jobs:
            for stage in job.schedulable_stages():
                score = self._policy.score(job, stage, context, self._priors)
                scored.append((-score, job.arrival_time, stage.stage_id, stage))
        if not scored:
            return SchedulingDecision()
        scored.sort(key=lambda item: (item[0], item[1], item[2]))
        # Decima's defining behaviour: commit capacity to the single
        # highest-scoring stage per invocation.
        best_stage = scored[0][3]
        return SchedulingDecision.from_tasks(best_stage.pending_tasks())
