"""Preemptive SRTF: checkpoint long-job tasks when shorter jobs wait.

Non-preemptive SRTF can only reorder *pending* tasks, so a burst of short
jobs arriving while long jobs occupy the whole cluster must wait for
natural completions.  This scheduler extends SRTF with checkpoint
preemption: when tasks of a shorter-remaining job cannot be placed for
lack of capacity, it issues :class:`~repro.schedulers.base.
PreemptionDirective`s against running tasks of the longest-remaining jobs.
Preempted work is checkpointed (progress conserved), so under the work-
conserving simulator the cost of a preemption is only the requeue — which
is exactly when SRTF's exchange argument says swapping is worth it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dag.task import Task, TaskType
from repro.schedulers.base import PreemptionDirective, SchedulingContext, SchedulingDecision
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.srtf import RemainingEstimator, SrtfScheduler
from repro.utils.validation import require_bool, require_int, require_real

__all__ = ["PreemptiveSrtfScheduler"]


class PreemptiveSrtfScheduler(SrtfScheduler):
    """SRTF preference lists plus preemption of longest-remaining victims.

    Parameters
    ----------
    priors / remaining_estimator:
        As for :class:`~repro.schedulers.srtf.SrtfScheduler`.
    min_advantage:
        A victim is only preempted for a task of a job whose estimated
        remaining time is at least ``min_advantage`` seconds shorter than
        the victim job's.  Raising it trades responsiveness for fewer
        preemptions (useful when estimates are noisy).
    max_preemptions_per_event:
        Safety valve bounding churn per scheduling point.
    min_victim_remaining:
        Floor on the victim *task's* own remaining time: a task within
        this many seconds of finishing is never preempted — its slot frees
        at the next completion event anyway, so checkpointing it is pure
        churn (and, under restart-from-scratch preemption, discards almost
        the task's entire work).  The default matches the engine's
        eps-scale completion tolerance (the pre-``SimulationConfig.eps``
        hard-coded ``1e-6``); raise it to also spare nearly-done tasks.
    checkpoint:
        Whether preempted work is checkpointed (progress conserved, the
        default) or restarted from scratch (progress discarded and metered
        as wasted work) — the latter models systems without checkpointing.
    """

    name = "srtf_preempt"
    preemptive = True

    def __init__(
        self,
        priors: Optional[ApplicationPriors] = None,
        remaining_estimator: Optional[RemainingEstimator] = None,
        min_advantage: float = 0.0,
        max_preemptions_per_event: int = 8,
        min_victim_remaining: float = 1e-6,
        checkpoint: bool = True,
    ) -> None:
        super().__init__(priors=priors, remaining_estimator=remaining_estimator)
        self._min_advantage = require_real(min_advantage, "min_advantage", 0.0)
        self._max_preemptions = require_int(
            max_preemptions_per_event, "max_preemptions_per_event", 1
        )
        self._min_victim_remaining = require_real(
            min_victim_remaining, "min_victim_remaining", 0.0
        )
        self._checkpoint = require_bool(checkpoint, "checkpoint")

    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        decision, remaining = self._schedule_with_remaining(context)
        if (
            len(decision.regular_tasks) <= context.free_regular_slots
            and len(decision.llm_tasks) <= context.free_llm_slots
        ):
            return decision  # everything fits: nothing to preempt for
        preemptions = self._plan_preemptions(context, decision, remaining)
        if preemptions:
            decision.preemptions = preemptions
        return decision

    def _plan_preemptions(
        self,
        context: SchedulingContext,
        decision: SchedulingDecision,
        remaining: Dict[str, float],
    ) -> List[PreemptionDirective]:
        # Victim pool: running tasks, longest-remaining owning job first.
        # Ties break toward later-arrived jobs so FIFO fairness is kept.
        # Tasks on draining/retired executors are no use as victims —
        # preempting them frees no assignable slot — and a task within the
        # remaining-time floor of finishing frees its slot at the next
        # completion event anyway; both are excluded up front rather than
        # wasting the per-event preemption budget.
        inactive = context.inactive_executor_ids
        speeds = context.executor_speeds
        candidates = [
            t
            for t in context.running_tasks()
            if self._victim_remaining_time(t, context.time, speeds) > self._min_victim_remaining
        ]
        if inactive:
            candidates = [t for t in candidates if t.executor_id not in inactive]
        victims = sorted(
            candidates,
            key=lambda t: (
                remaining.get(t.job_id, 0.0),
                context.job_of(t).arrival_time,
                t.job_id,
                t.uid,
            ),
            reverse=True,
        )
        directives: List[PreemptionDirective] = []
        claimed: set = set()
        budget = self._max_preemptions
        for task_type, tasks, free in (
            (TaskType.REGULAR, decision.regular_tasks, context.free_regular_slots),
            (TaskType.LLM, decision.llm_tasks, context.free_llm_slots),
        ):
            # Tasks beyond the free capacity are the ones placement will cut.
            for blocked in tasks[free:]:
                if budget <= 0:
                    break
                blocked_remaining = remaining.get(blocked.job_id, 0.0)
                victim = self._pick_victim(
                    victims, remaining, claimed, task_type, blocked_remaining, blocked.job_id
                )
                if victim is None:
                    break  # no longer-remaining victim of this type exists
                claimed.add(victim.uid)
                directives.append(
                    PreemptionDirective(task=victim, checkpoint=self._checkpoint)
                )
                budget -= 1
        return directives

    @staticmethod
    def _victim_remaining_time(task: Task, now: float, speeds: Dict[str, float]) -> float:
        """Estimated wall-clock seconds until ``task`` itself finishes.

        ``speeds`` maps executor ids to their pool's hardware speed factor
        (from the scheduling context), so the estimate stays honest on
        heterogeneous pools.  LLM tasks carry accurate ``remaining_work``
        (progress is accrued by the engine's clock advance) but their wall
        time also depends on the batch, which only the executor knows —
        dividing by the speed factor is the closest scheduler-side
        estimate.  Regular tasks bank progress only at checkpoints, so
        elapsed running time is subtracted instead.
        """
        speed = speeds.get(task.executor_id, 1.0) if task.executor_id else 1.0
        if task.task_type is TaskType.REGULAR and task.start_time is not None:
            return max(0.0, task.remaining_work / speed - (now - task.start_time))
        return task.remaining_work / speed

    def _pick_victim(
        self,
        victims: List[Task],
        remaining: Dict[str, float],
        claimed: set,
        task_type: TaskType,
        blocked_remaining: float,
        blocked_job_id: str,
    ) -> Optional[Task]:
        threshold = blocked_remaining + self._min_advantage
        for victim in victims:
            if victim.task_type is not task_type:
                continue
            if remaining.get(victim.job_id, 0.0) <= threshold:
                return None  # sorted longest-first: nothing further qualifies
            if victim.uid in claimed or victim.job_id == blocked_job_id:
                continue
            return victim
        return None
