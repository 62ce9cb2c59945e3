"""Carbyne — altruistic multi-resource scheduling (Grandl et al., OSDI 2016).

Carbyne lets every job claim just enough resources to keep its own expected
completion time, and altruistically donates the leftover to the jobs that
benefit most.  A faithful reimplementation requires the full multi-resource
packing machinery of the original system; this reproduction keeps the two
behaviours the paper's comparison actually exercises:

1. jobs are primarily ordered by their estimated remaining duration (the
   completion-time-preserving share), and
2. leftover capacity is donated to the tasks that most improve *other*
   jobs' progress — approximated by preferring stages that unlock the most
   downstream work (children count) across the remaining jobs.

The simplification is documented in DESIGN.md; like the original, the policy
is duration-informed but not uncertainty-aware.
"""

from __future__ import annotations

from typing import List

from repro.dag.task import Task
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision
from repro.schedulers.priors import ApplicationPriors
from repro.utils.validation import require_real

__all__ = ["CarbyneScheduler"]


class CarbyneScheduler(Scheduler):
    """SRTF-ordered primary share plus an altruistic leftover share."""

    name = "carbyne"

    def __init__(self, priors: ApplicationPriors, primary_fraction: float = 0.7) -> None:
        self._primary_fraction = require_real(primary_fraction, "primary_fraction", 0.0)
        if not 0.0 < self._primary_fraction <= 1.0:
            raise ValueError("primary_fraction must be within (0, 1]")
        self._priors = priors

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        jobs_by_remaining = sorted(
            context.jobs,
            key=lambda j: (self._priors.estimate_remaining(j), j.arrival_time, j.job_id),
        )

        # Primary share: keep the shortest-remaining jobs on track.
        primary_tasks: List[Task] = []
        primary_count = max(1, int(round(len(jobs_by_remaining) * self._primary_fraction)))
        for job in jobs_by_remaining[:primary_count]:
            stages = sorted(
                job.schedulable_stages(),
                key=lambda s: (job.stage_depth(s.stage_id), s.stage_id),
            )
            for stage in stages:
                primary_tasks.extend(stage.pending_tasks())

        # Altruistic leftover: donate to stages that unlock the most
        # downstream work among the remaining jobs.
        leftover: List[Task] = []
        donations: List[tuple] = []
        for job in jobs_by_remaining[primary_count:]:
            for stage in job.schedulable_stages():
                unlocked = len(job.children(stage.stage_id))
                donations.append((-float(unlocked), job.arrival_time, stage.stage_id, stage))
        donations.sort(key=lambda item: (item[0], item[1], item[2]))
        for _, _, _, stage in donations:
            leftover.extend(stage.pending_tasks())

        return SchedulingDecision.from_tasks(primary_tasks + leftover)
