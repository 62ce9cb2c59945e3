"""Scheduler interface shared by LLMSched and all baselines.

The simulation engine calls :meth:`Scheduler.schedule` whenever capacity may
be available (job arrivals, task completions).  The scheduler returns two
*preference lists* — one for regular tasks, one for LLM tasks — and the
engine greedily places as many tasks from the front of each list as the
cluster can currently hold.  Tasks that do not fit simply stay pending and
are reconsidered at the next invocation, so schedulers never need to know
the exact free capacity (though it is exposed on the context for policies
that want it).

A scheduler may cut its lists at a live context's ``free_*_slots``: the
engine applies a live decision at once and drops everything past the free
capacity anyway.  It must never cut them on a snapshot
(``context.is_snapshot``): that decision is applied after a latency window,
when more slots may be free, and entries past the snapshot's free capacity
are still placed then.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.dag.job import Job
from repro.dag.stage import Stage
from repro.dag.task import Task, TaskType
from repro.schedulers.ready import ReadyIndex, ready_jobs_of
from repro.schedulers.snapshot import CowSnapshotTracker

__all__ = [
    "SchedulingContext",
    "SchedulingDecision",
    "PreemptionDirective",
    "Scheduler",
    "flatten_stage_tasks",
    "interleave_tasks",
]


@dataclass
class SchedulingContext:
    """A snapshot of everything a scheduler may look at when deciding.

    Attributes
    ----------
    time:
        Current simulation time in seconds.
    jobs:
        Arrived and unfinished jobs, in arrival order.
    free_regular_slots / free_llm_slots:
        Currently available capacity (regular executors, LLM batch slots).
    llm_batch_sizes:
        Current batch size of every LLM executor (used by batching-aware
        duration calibration).
    """

    time: float
    jobs: List[Job]
    free_regular_slots: int = 0
    free_llm_slots: int = 0
    llm_batch_sizes: List[int] = field(default_factory=list)
    #: Executor ids that no longer accept work (draining or retired under
    #: autoscaling).  Preemptive schedulers must not pick victims here:
    #: preempting a draining executor frees no assignable capacity.
    inactive_executor_ids: Set[str] = field(default_factory=set)
    #: Executor-id → hardware speed factor (populated for preemptive
    #: schedulers only), so victim remaining-*time* estimates stay correct
    #: on heterogeneous pools; executors absent from the map run at 1.0.
    executor_speeds: Dict[str, float] = field(default_factory=dict)
    #: Executor-id → prefill/decode role (populated for preemptive
    #: schedulers on disaggregated clusters only; empty otherwise).  Lets
    #: SLO-aware policies detect requests that finished prefill on a
    #: prefill-role executor and should migrate to a decode pool.
    executor_roles: Dict[str, str] = field(default_factory=dict)
    #: Set on contexts produced by :meth:`snapshot`: the simulation time at
    #: which the view was frozen.  Live contexts keep ``None``.  Asynchronous
    #: backends hand snapshots to schedulers so a decision computed during a
    #: latency window cannot observe (or corrupt) later cluster mutations.
    snapshot_time: Optional[float] = None
    # Lazily-built job_id -> Job index backing job_of (built at most once
    # per context; the job *set* of a context never changes — COW snapshots
    # may swap individual entries for clones, which resets this cache).
    _jobs_by_id: Optional[Dict[str, Job]] = field(default=None, repr=False, compare=False)
    #: Copy-on-write wiring (set by the engine on live contexts when the
    #: run uses ``snapshot_policy="cow"``).  ``_cow_tracker`` makes
    #: :meth:`snapshot` return a sharing view instead of a deep copy;
    #: ``_cow_shared`` (snapshots only) maps job_id -> index of entries in
    #: ``jobs`` that still alias live job objects.  The tracker evicts an
    #: entry and swaps in a private clone right before the live engine
    #: mutates that job (see :class:`~repro.schedulers.snapshot.
    #: CowSnapshotTracker`).
    _cow_tracker: Optional[CowSnapshotTracker] = field(
        default=None, repr=False, compare=False
    )
    _cow_shared: Optional[Dict[str, int]] = field(default=None, repr=False, compare=False)
    #: The engine's live ready index (set on live engine contexts only;
    #: :meth:`snapshot` never copies it).
    _ready: Optional[ReadyIndex] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def ready_jobs(self, task_type: TaskType) -> Sequence[Job]:
        """Jobs with a pending ``task_type`` task in a schedulable stage.

        Sorted by ``(arrival_time, job_id)``.  Live engine contexts return
        the engine's ready index without scanning; every other context
        (bare, snapshot, reference engine) derives the same sequence from
        ``jobs``.  Treat the result as read-only.
        """
        if self._ready is not None:
            return self._ready.jobs(task_type)
        return ready_jobs_of(self.jobs, task_type)

    def job_version(self, job: Job) -> Optional[int]:
        """A stamp that changes whenever ``job``'s evidence may have changed.

        Live engine contexts return the engine's current stamp for the job
        (new at every admission, placement, preemption, task or stage
        completion and migration; values are never reused).  Every other
        context (bare, snapshot, reference engine) returns ``None``: nothing
        derived from the job may be reused across calls.
        """
        if self._ready is not None:
            return self._ready.version(job)
        return None

    def schedulable_stages(self) -> List[Stage]:
        """Every stage that currently has pending tasks and satisfied deps."""
        stages: List[Stage] = []
        for job in self.jobs:
            stages.extend(job.schedulable_stages())
        return stages

    def schedulable_tasks(self) -> List[Task]:
        return [t for s in self.schedulable_stages() for t in s.pending_tasks()]

    def running_tasks(self) -> List[Task]:
        """Tasks currently placed on executors (preemption candidates)."""
        tasks: List[Task] = []
        for job in self.jobs:
            # Running tasks only exist in non-complete stages, and
            # unfinished_stages() walks the stage dict without copying it.
            for stage in job.unfinished_stages():
                tasks.extend(stage.running_tasks())
        return tasks

    def job_of(self, task: Task) -> Job:
        index = self._jobs_by_id
        if index is None:
            index = {job.job_id: job for job in self.jobs}
            self._jobs_by_id = index
        try:
            return index[task.job_id]
        except KeyError:
            raise KeyError(f"task {task.key()} belongs to no active job") from None

    @property
    def average_llm_batch_size(self) -> float:
        """Mean batch size over *busy* LLM executors.

        Idle executors (batch size 0) are excluded: batching-aware duration
        calibration asks "what batch does a request share when it runs?",
        and an idle executor contributes batch 1 the moment a request lands
        on it, never batch 0.  Averaging zeros in deflated the estimate
        exactly when the cluster was underloaded.  With no busy executor
        (or no LLM pool at all) the answer is the no-contention batch of 1.
        """
        busy = [b for b in self.llm_batch_sizes if b > 0]
        if not busy:
            return 1.0
        return sum(busy) / len(busy)

    @property
    def is_snapshot(self) -> bool:
        return self.snapshot_time is not None

    def snapshot(self) -> "SchedulingContext":
        """A frozen view of this context, immune to live mutations.

        Two implementations, selected by whether the engine attached a
        :class:`~repro.schedulers.snapshot.CowSnapshotTracker`:

        * **Copy-on-write** (the engine default, ``snapshot_policy="cow"``):
          the snapshot starts out sharing every live ``Job`` object; the
          engine copies a job into the snapshot right before mutating it.
          Creation is O(active jobs) pointer copies instead of a deep copy
          of the whole DAG forest.  The snapshot is a *read-only* view —
          the scheduler contract already forbids mutating the context, and
          under COW a write-through would corrupt live state.
        * **Deep copy** (the golden oracle, ``snapshot_policy="deepcopy"``,
          and the default for bare contexts built outside an engine): jobs
          with their stages and tasks are deep-copied, so isolation holds
          in both directions.

        Either way a scheduler deciding against the snapshot sees the
        cluster exactly as it was at ``time`` no matter what the live
        simulation does in the meantime.  Tasks inside a decision computed
        from a snapshot may be copies; whoever applies the decision must
        map them back onto the live jobs by key (see
        ``SimulationEngine._resolve_live_task`` — under COW the mapping is
        usually the identity, but the engine never relies on that).

        Snapshots are frozen at a single instant: re-snapshotting one is
        always a bug (it would silently re-stamp ``snapshot_time``), so it
        raises instead.
        """
        if self.is_snapshot:
            raise RuntimeError(
                "cannot snapshot a snapshot: this context was already frozen "
                f"at t={self.snapshot_time}; take snapshots from the live context"
            )
        if self._cow_tracker is not None:
            snapshot = SchedulingContext(
                time=self.time,
                jobs=list(self.jobs),
                free_regular_slots=self.free_regular_slots,
                free_llm_slots=self.free_llm_slots,
                llm_batch_sizes=list(self.llm_batch_sizes),
                inactive_executor_ids=set(self.inactive_executor_ids),
                executor_speeds=dict(self.executor_speeds),
                executor_roles=dict(self.executor_roles),
                snapshot_time=self.time,
            )
            snapshot._cow_shared = {
                job.job_id: index for index, job in enumerate(snapshot.jobs)
            }
            self._cow_tracker.register(snapshot)
            return snapshot
        return SchedulingContext(
            time=self.time,
            jobs=copy.deepcopy(self.jobs),
            free_regular_slots=self.free_regular_slots,
            free_llm_slots=self.free_llm_slots,
            llm_batch_sizes=list(self.llm_batch_sizes),
            inactive_executor_ids=set(self.inactive_executor_ids),
            executor_speeds=dict(self.executor_speeds),
            executor_roles=dict(self.executor_roles),
            snapshot_time=self.time,
        )


@dataclass(frozen=True)
class PreemptionDirective:
    """Checkpoint one running task back to PENDING before placement.

    With ``checkpoint=True`` (the default) the task's progress is conserved
    — it resumes later with only its remaining work (the engine counts the
    preemption but no work is wasted).  ``checkpoint=False`` models
    restart-from-scratch preemption; the discarded progress is recorded as
    wasted work in the run metrics.
    """

    task: Task
    checkpoint: bool = True


@dataclass
class SchedulingDecision:
    """Ordered task preferences returned by a scheduler.

    ``preemptions`` (optional, preemptive schedulers only) are applied by
    the engine *before* the preference lists are placed, so freed capacity
    is immediately available to the listed tasks.
    """

    regular_tasks: List[Task] = field(default_factory=list)
    llm_tasks: List[Task] = field(default_factory=list)
    preemptions: List[PreemptionDirective] = field(default_factory=list)

    def __post_init__(self) -> None:
        for task in self.regular_tasks:
            if task.task_type is not TaskType.REGULAR:
                raise ValueError(f"{task.key()} is not a regular task")
        for task in self.llm_tasks:
            if task.task_type is not TaskType.LLM:
                raise ValueError(f"{task.key()} is not an LLM task")
        for directive in self.preemptions:
            if not isinstance(directive, PreemptionDirective):
                raise ValueError("preemptions must be PreemptionDirective instances")

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task]) -> "SchedulingDecision":
        """Split an ordered task list into the two preference lists."""
        regular: List[Task] = []
        llm: List[Task] = []
        for task in tasks:
            (llm if task.task_type is TaskType.LLM else regular).append(task)
        return cls(regular_tasks=regular, llm_tasks=llm)

    @property
    def total_tasks(self) -> int:
        return len(self.regular_tasks) + len(self.llm_tasks)


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    #: Human-readable name used in experiment reports.
    name: str = "base"

    #: Preemptive schedulers may return :class:`PreemptionDirective`s and
    #: are invoked even when the cluster has no free capacity (a scheduling
    #: pass can *create* capacity).  Non-preemptive schedulers keep the
    #: pre-preemption fast path: no invocation on a full cluster.
    preemptive: bool = False

    # Optional hooks ----------------------------------------------------- #
    def on_job_arrival(self, job: Job, time: float) -> None:
        """Called once when a job arrives (before the next scheduling pass)."""

    def on_stage_complete(self, job: Job, stage: Stage, time: float) -> None:
        """Called when every task of a stage has finished (or it was skipped)."""

    def on_job_complete(self, job: Job, time: float) -> None:
        """Called when a job finishes."""

    # Mandatory ---------------------------------------------------------- #
    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        """Return preference lists for the currently schedulable tasks."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def flatten_stage_tasks(stages: Sequence[Stage]) -> List[Task]:
    """Flatten stages into tasks, keeping the given stage priority order.

    All tasks of a higher-priority stage come before tasks of lower-priority
    stages; within a stage, tasks keep their index order.  This is what the
    priority-ordering baselines (FCFS/SJF/SRTF/Argus) want: the stage order
    *is* the preference order, and no cross-stage fairness is implied.
    """
    tasks: List[Task] = []
    for stage in stages:
        tasks.extend(stage.pending_tasks())
    return tasks


def interleave_tasks(stages: Sequence[Stage]) -> List[Task]:
    """True round-robin over stages: one pending task per stage per round.

    The first pending task of every stage (in the given priority order),
    then every second pending task, and so on — so no single wide stage can
    starve the others while still respecting the priority order within each
    round.  Use :func:`flatten_stage_tasks` when strict stage priority is
    wanted instead.
    """
    queues = [stage.pending_tasks() for stage in stages]
    tasks: List[Task] = []
    for rank in range(max((len(q) for q in queues), default=0)):
        for queue in queues:
            if rank < len(queue):
                tasks.append(queue[rank])
    return tasks
