"""First Come First Serve — Spark's default policy (job-agnostic baseline)."""

from __future__ import annotations

from typing import List, Optional

from repro.dag.task import Task, TaskType
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision

__all__ = ["FcfsScheduler"]


class FcfsScheduler(Scheduler):
    """Schedule jobs strictly in arrival order.

    Within a job, stages are ordered by DAG depth so upstream work runs
    first; the policy uses no duration or structure profile at all.

    Each preference list walks the context's ready jobs of its task type
    (:meth:`SchedulingContext.ready_jobs`).  On a live context the walk
    stops after ``free_*_slots`` tasks, the most the engine can place; a
    snapshot lists every ready task (see the :mod:`repro.schedulers.base`
    docstring).
    """

    name = "fcfs"

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        snapshot = context.is_snapshot
        return SchedulingDecision(
            regular_tasks=_in_arrival_order(
                context, TaskType.REGULAR, None if snapshot else context.free_regular_slots
            ),
            llm_tasks=_in_arrival_order(
                context, TaskType.LLM, None if snapshot else context.free_llm_slots
            ),
        )


def _in_arrival_order(
    context: SchedulingContext, task_type: TaskType, limit: Optional[int]
) -> List[Task]:
    """Pending ``task_type`` tasks: jobs by arrival, stages by (depth, id).

    Stops once ``limit`` tasks are listed (``None`` lists them all).
    """
    llm = task_type is TaskType.LLM
    tasks: List[Task] = []
    for job in context.ready_jobs(task_type):
        stages = sorted(
            (s for s in job.schedulable_stages() if s.is_llm is llm),
            key=lambda s: (job.stage_depth(s.stage_id), s.stage_id),
        )
        for stage in stages:
            tasks.extend(stage.pending_tasks())
        if limit is not None and len(tasks) >= limit:
            return tasks[:limit]
    return tasks
