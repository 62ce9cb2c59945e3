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

The policy is linear in the stage features and is trained with a
cross-entropy method (a derivative-free policy search) directly against
average JCT in the simulator — see :func:`train_decima`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.dag.job import Job
from repro.dag.stage import Stage
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision
from repro.schedulers.priors import ApplicationPriors
from repro.utils.rng import make_rng

__all__ = ["DecimaPolicy", "DecimaScheduler", "train_decima"]

#: Feature order used by :meth:`DecimaPolicy.score`.
FEATURE_NAMES = [
    "job_remaining_estimate",
    "job_age",
    "stage_pending_tasks",
    "stage_depth",
    "stage_children",
    "stage_is_llm",
]

#: Weights obtained by running :func:`train_decima` on the four workload
#: types (seed 0, 12 CEM iterations); shipping them lets the scheduler work
#: out of the box while remaining re-trainable.
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

    def __init__(
        self,
        priors: ApplicationPriors,
        policy: Optional[DecimaPolicy] = None,
    ) -> None:
        self._priors = priors
        self._policy = policy or DecimaPolicy()

    @property
    def policy(self) -> DecimaPolicy:
        return self._policy

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


def train_decima(
    evaluate: Callable[[DecimaPolicy], float],
    iterations: int = 10,
    population: int = 16,
    elite_fraction: float = 0.25,
    seed: int = 0,
    initial_std: float = 0.5,
) -> DecimaPolicy:
    """Cross-entropy-method policy search minimising average JCT.

    Parameters
    ----------
    evaluate:
        Callback running the candidate policy on training workloads and
        returning the average JCT (lower is better).  The experiment harness
        provides one backed by the simulator.
    iterations / population / elite_fraction:
        Standard CEM knobs; the defaults train in a few minutes on the
        paper-scale workloads.
    """
    if iterations < 1 or population < 2:
        raise ValueError("iterations must be >= 1 and population >= 2")
    if not 0.0 < elite_fraction <= 1.0:
        raise ValueError("elite_fraction must be within (0, 1]")
    rng = make_rng(seed)
    dim = len(FEATURE_NAMES)
    mean = np.asarray(DEFAULT_WEIGHTS, dtype=float)
    std = np.full(dim, float(initial_std))
    n_elite = max(1, int(round(population * elite_fraction)))

    best_policy = DecimaPolicy(tuple(mean))
    best_score = evaluate(best_policy)

    for _ in range(iterations):
        candidates = [mean + std * rng.standard_normal(dim) for _ in range(population)]
        scores = []
        for weights in candidates:
            policy = DecimaPolicy(tuple(weights))
            score = evaluate(policy)
            scores.append(score)
            if score < best_score:
                best_score = score
                best_policy = policy
        elite_indices = np.argsort(scores)[:n_elite]
        elite = np.stack([candidates[i] for i in elite_indices])
        mean = elite.mean(axis=0)
        std = elite.std(axis=0) + 1e-3
    return best_policy
