"""The discrete-event simulation engine (indexed fast path).

The engine owns the clock, the cluster and the job set; the scheduling
policy, the placement policy and (optionally) an autoscaler are pluggable.
Scheduling points are job arrivals, task completions, periodic scale
events (when an autoscaler is configured) and decision-ready events (when
an :class:`~repro.simulator.async_sched.AsyncSchedulerBackend` is
configured).  At every scheduling point the engine snapshots the cluster,
invokes the scheduler (timing the call for the scheduling-overhead
numbers of the paper's Table I), applies any preemption directives the
decision carries (checkpointing running tasks back to pending with work
conserved), and walks the returned preference lists, asking the placement
policy for a pool per task.  With an async backend the invocation runs
against a frozen snapshot instead (copy-on-write by default, deep copy
under ``SimulationConfig(snapshot_policy="deepcopy")``), the decision
waits out a configurable latency in flight, and its application against
the live cluster resolves whatever changed in the meantime (see
:meth:`_apply_async_decision`).

Event core
----------
The original engine rescanned every executor at every iteration.  This
implementation keeps indexed state instead:

* **Regular executors** — completion events live in a min-heap
  (:class:`~repro.simulator.events.EventQueue`) pushed at placement time.
  Entries are lazily invalidated: a popped/peeked entry whose executor no
  longer runs a task with that completion time is discarded.
* **LLM executors** — a per-request completion time depends on the batch
  composition, but the *absolute* finish time of the earliest-finishing
  request is invariant under progress accrual while the batch is unchanged.
  The engine therefore caches one candidate completion time per LLM
  executor and keeps a *dirty set* of executors whose batch changed; only
  dirty executors are rescanned.
* **Jobs** — active jobs live in an insertion-ordered dict keyed by job id,
  so membership tests and completion removal are O(1).
* **Ready index** — a :class:`~repro.schedulers.ready.ReadyIndex` keeps, per
  task type, the active jobs with a pending task of that type in a
  schedulable stage, sorted by arrival.  Each site that changes a job's
  schedulable set touches the job (admission, placement, preemption,
  stage completion, job completion, migration) and the index re-files
  touched jobs when next read.  Live contexts expose it as
  ``context.ready_jobs``, so FCFS ranks only what the free slots can take
  instead of the whole backlog.  Every touch, and every task completion,
  also stamps the job with a new version (``context.job_version``), so
  LLMSched reuses a job's posterior estimate until its evidence changes.
* **Running set** — live contexts of preemptive schedulers get the
  executors' tasks, sorted into the order of a walk over every active job
  (admission number, stage position, task index), without that walk.
* **Capacity** — free-slot counts are maintained incrementally by the
  :class:`~repro.simulator.cluster.Cluster`, so building a
  :class:`~repro.schedulers.base.SchedulingContext` does not recompute
  cluster state.

Open-loop workloads
-------------------
``jobs`` may be a materialized sequence (closed loop, sorted internally) or
any iterator/generator yielding jobs in non-decreasing arrival order (open
loop, e.g. :func:`repro.workloads.arrivals.open_loop_jobs`).  Streamed jobs
are admitted lazily and dropped from the engine's indexes once they
complete, so the heavy per-job state (DAG, stages, tasks) only exists for
*concurrently active* jobs.  What still grows with the total job count is
O(1) per job: the seen-id set (duplicate detection) and the per-job JCT
entries in :class:`SimulationMetrics`.
"""

from __future__ import annotations

import itertools
import time as wallclock
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.dag.job import Job
from repro.dag.stage import StageState
from repro.dag.task import Task, TaskState, TaskType
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision
from repro.schedulers.ready import ReadyIndex
from repro.schedulers.snapshot import CowSnapshotTracker
from repro.simulator.async_sched import AsyncSchedulerBackend
from repro.simulator.autoscaler import ThresholdAutoscaler
from repro.simulator.cluster import Cluster
from repro.simulator.events import EventQueue
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.placement import GreedyFirstFitPlacement, PlacementPolicy
from repro.utils.validation import check_fields, integer, one_of, positive

__all__ = ["SimulationConfig", "SimulationEngine", "validate_arrival_order"]

_EPS = 1e-9

#: The declared rule of both ``snapshot_policy`` fields (here and in the settings).
SNAPSHOT_POLICY = one_of("snapshot policy", ("cow", "deepcopy"))


def validate_arrival_order(
    job: Job, seen_ids: Set[str], last_arrival_time: float, eps: float
) -> float:
    """Validate one pulled arrival against the stream seen so far.

    Shared by the engine's arrival lookahead and the federation's global
    stream (same rules, same error messages): job ids must be unique and
    arrival times non-decreasing.  Adds the id to ``seen_ids`` and returns
    the updated high-water arrival time.
    """
    if job.job_id in seen_ids:
        raise ValueError(f"duplicate job id {job.job_id!r} in arrival stream")
    seen_ids.add(job.job_id)
    if job.arrival_time < last_arrival_time - eps:
        raise ValueError(
            f"arrival stream is not time-ordered: job {job.job_id!r} arrives at "
            f"{job.arrival_time} after {last_arrival_time}"
        )
    return max(last_arrival_time, job.arrival_time)


@dataclass(frozen=True)
class SimulationConfig:
    """Safety limits and bookkeeping knobs for a simulation run.

    ``eps`` is the shared tolerance used for time comparisons and for the
    remaining-work threshold below which an LLM task counts as finished
    (previously a hard-coded ``1e-6`` in the completion scan).

    ``snapshot_policy`` selects how :meth:`SchedulingContext.snapshot`
    isolates async decisions from live mutations: ``"cow"`` (default) hands
    out copy-on-write views whose jobs are copied only when the engine
    mutates them while the snapshot is alive; ``"deepcopy"`` keeps the
    original wholesale deep copy as the golden oracle (observationally
    identical, verified by tests/test_context_snapshot.py, and O(jobs x
    stages x tasks) slower per scheduling pass).
    """

    max_simulated_time: float = field(default=10_000_000.0, metadata=positive())
    max_iterations: int = field(default=20_000_000, metadata=integer(1))
    eps: float = field(default=_EPS, metadata=positive())
    snapshot_policy: str = field(default="cow", metadata=SNAPSHOT_POLICY)

    def __post_init__(self) -> None:
        check_fields(self)


class SimulationEngine:
    """Runs one workload with one scheduler on one cluster."""

    def __init__(
        self,
        jobs: Iterable[Job],
        scheduler: Scheduler,
        cluster: Optional[Cluster] = None,
        config: Optional[SimulationConfig] = None,
        workload_name: str = "",
        placement: Optional[PlacementPolicy] = None,
        autoscaler: Optional[ThresholdAutoscaler] = None,
        async_backend: Optional[AsyncSchedulerBackend] = None,
    ) -> None:
        if cluster is None:
            cluster = Cluster()
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.placement = placement or GreedyFirstFitPlacement()
        self.autoscaler = autoscaler
        if autoscaler is not None:
            autoscaler.reset()  # instances reused across runs re-arm at t=0
        self.async_backend = async_backend
        if async_backend is not None:
            async_backend.reset()  # same: re-arm in-flight state at t=0
        if isinstance(jobs, Sequence):
            if not jobs:
                raise ValueError("cannot simulate an empty job list")
            ordered = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
            if len({j.job_id for j in ordered}) != len(ordered):
                raise ValueError("duplicate job ids in workload")
            self._arrivals: Iterator[Job] = iter(ordered)
        else:
            self._arrivals = iter(jobs)
        self.metrics = SimulationMetrics(
            scheduler_name=scheduler.name, workload_name=workload_name
        )
        self._time = 0.0
        self._iterations = 0
        self._active_jobs: Dict[str, Job] = {}
        # Admission number per active job: _active_jobs is in this order.
        self._admitted: Dict[str, int] = {}
        self._admissions = itertools.count()
        self._ready = ReadyIndex(self._active_jobs)
        self._seen_job_ids: Set[str] = set()
        self._last_arrival_time = 0.0
        self._next_arrival: Optional[Job] = None
        self._pull_arrival()

        # Indexed event core (see module docstring).  For LLM executors the
        # cache holds the earliest-finishing *task*: its identity is stable
        # while the batch is unchanged, whereas its absolute finish time is
        # re-derived from current executor state on every query so the clock
        # stays bit-identical with the reference engine's full rescans.
        self._regular_events = EventQueue()
        self._llm_best: List[Optional[Task]] = [None] * len(cluster.llm_executors)
        self._dirty_llm: Set[int] = set(range(len(cluster.llm_executors)))

        # Copy-on-write snapshot support: live contexts built by this engine
        # carry the tracker, so context.snapshot() returns a sharing view and
        # every job-mutation site below calls _mark_job_dirty first.  With
        # snapshot_policy="deepcopy" the tracker is None and snapshot()
        # falls back to the wholesale deep copy (the golden oracle).
        self._cow: Optional[CowSnapshotTracker] = (
            CowSnapshotTracker() if self.config.snapshot_policy == "cow" else None
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Execute the workload to completion and return the metrics."""
        while self.step():
            pass
        return self.finalize()

    def step(self) -> bool:
        """Advance the simulation through one scheduling point.

        Returns ``False`` once no further progress is possible — the
        workload drained, or nothing can ever happen again (which raises
        for a real deadlock).  Callers stepping manually should invoke
        :meth:`finalize` afterwards; :meth:`run` does both.

        A step is the public passes in order — :meth:`schedule_pass`,
        :meth:`sync_clock` to the next event, :meth:`completion_pass` —
        plus a due autoscale check.  A federated fleet drives each shard
        engine through the same passes on its shared clock.
        """
        if self._next_arrival is None and not self._active_jobs:
            return False
        next_time = self.schedule_pass()
        if next_time is None:
            self._check_for_deadlock()
            return False
        self.sync_clock(next_time)
        self.completion_pass()
        if (
            self.autoscaler is not None
            and self._time + self.config.eps >= self.autoscaler.next_check_time
        ):
            self._run_autoscaler()
        return True

    def schedule_pass(self) -> Optional[float]:
        """One scheduling pass at the current time; returns the next event time.

        Enforces the iteration and simulated-time limits, admits due
        arrivals, applies due async decisions and dispatches.  ``None``
        means no event is pending: nothing can ever happen again.
        """
        self._iterations += 1
        if self._iterations > self.config.max_iterations:
            raise RuntimeError("simulation exceeded max_iterations; likely a livelock")
        if self._time > self.config.max_simulated_time:
            raise RuntimeError("simulation exceeded max_simulated_time")
        self._admit_arrivals(self._time)
        if self.async_backend is not None:
            self._apply_due_decisions(self._time)
        self._dispatch()
        return self._next_event_time()

    def sync_clock(self, time: float) -> None:
        """Move the clock forward to ``time``, accruing executor progress."""
        self._time = max(self._time, time)
        self.advance_cluster_to(self._time)

    def unfinished_jobs(self) -> List[Job]:
        """Active jobs that have not finished, in admission order."""
        return [job for job in self._active_jobs.values() if not job.is_finished]

    def finalize(self, horizon: Optional[float] = None) -> SimulationMetrics:
        """Fill the run-level metrics (event count, makespan, utilisation).

        Utilisation is measured over ``horizon``, the engine's own clock by
        default.  A fleet passes its clock, so a shard that drained early
        does not report its busy fraction over a shorter window.
        """
        horizon = max(self._time if horizon is None else horizon, _EPS)
        self.metrics.num_events = self._iterations
        self.metrics.makespan = self._time
        self.metrics.utilization = self.cluster.utilization(horizon)
        self.metrics.pool_utilization = self.cluster.pool_utilization(horizon)
        self.metrics.executor_counts = {
            "regular": len(self.cluster.regular_executors),
            "llm": len(self.cluster.llm_executors),
        }
        # Token-grain serving accounting: executors are never removed from
        # the cluster lists (they retire in place), so this drains every ITL
        # sample exactly once.  No-ops (empty lists) on legacy runs.
        self.metrics.num_llm_executors = len(self.cluster.llm_executors)
        for executor in self.cluster.llm_executors:
            self.metrics.record_itl_samples(executor.drain_itl_samples())
        return self.metrics

    @property
    def current_time(self) -> float:
        return self._time

    @property
    def num_active_jobs(self) -> int:
        """Jobs admitted and not yet finished (open-loop memory footprint)."""
        return len(self._active_jobs)

    # ------------------------------------------------------------------ #
    # Copy-on-write snapshot maintenance
    # ------------------------------------------------------------------ #
    def _mark_job_dirty(self, job: Job) -> None:
        """Copy ``job`` into live COW snapshots before mutating it.

        Every engine code path that mutates a job's observable state
        (task placement, progress accrual, completion, preemption,
        migration) must call this *first*.  A no-op when the run uses the
        deep-copy oracle or when no snapshot is currently alive — i.e. in
        steady state this costs one dict-emptiness check.
        """
        if self._cow is not None:
            self._cow.mark_dirty(job)

    # ------------------------------------------------------------------ #
    # Active jobs and the ready index
    # ------------------------------------------------------------------ #
    # Every site that invalidates a job's schedulable-stage cache touches
    # the job in the ready index, and the two helpers below are the only
    # writers of the active-job set, so the index always matches what
    # ``ready_jobs_of`` derives from the active jobs, and admission numbers
    # follow the set's order (a job migrated in goes last in both).
    def _activate_job(self, job: Job) -> None:
        """Make ``job`` active on this engine (arrival or migration in)."""
        self._active_jobs[job.job_id] = job
        self._admitted[job.job_id] = next(self._admissions)
        self._ready.touch(job)

    def _deactivate_job(self, job: Job) -> None:
        """Drop ``job`` from this engine (completion or migration out)."""
        self._active_jobs.pop(job.job_id, None)
        self._admitted.pop(job.job_id, None)
        self._ready.discard(job)

    def _running_tasks(self) -> List[Task]:
        """The executors' tasks in the order of the walk over ``context.jobs``:
        by job admission number, stage position, then task index."""
        running = [
            e.current_task for e in self.cluster.regular_executors if e.current_task is not None
        ]
        for executor in self.cluster.llm_executors:
            running.extend(executor.running)
        admitted, jobs = self._admitted, self._active_jobs
        running.sort(
            key=lambda t: (admitted[t.job_id], jobs[t.job_id].stage_position(t.stage_id), t.index)
        )
        return running

    def advance_cluster_to(self, time: float) -> None:
        """Accrue executor progress up to ``time`` (COW-safely).

        Progress accrual mutates the tasks currently running on LLM
        executors (regular tasks only mutate at place/finish/preempt), so
        their owning jobs are copied into live snapshots first.  All
        callers that used to call ``cluster.advance_to`` directly — the
        step loop here and the federation's phase drivers — go through
        this wrapper so dirty-marking can never be bypassed.
        """
        cow = self._cow
        if cow is not None and cow.active:
            for executor in self.cluster.llm_executors:
                for task in executor.running:
                    job = self._active_jobs.get(task.job_id)
                    if job is not None:
                        cow.mark_dirty(job)
        self.cluster.advance_to(time)

    # ------------------------------------------------------------------ #
    # Arrivals
    # ------------------------------------------------------------------ #
    def _pull_arrival(self) -> None:
        self._next_arrival = next(self._arrivals, None)
        if self._next_arrival is None:
            return
        self._last_arrival_time = validate_arrival_order(
            self._next_arrival, self._seen_job_ids, self._last_arrival_time, self.config.eps
        )

    def _admit_arrivals(self, now: float) -> None:
        if self._next_arrival is None:
            # A fleet shard's feed refills between passes; an exhausted
            # stream stays exhausted.
            self._pull_arrival()
        eps = self.config.eps
        while self._next_arrival is not None and self._next_arrival.arrival_time <= now + eps:
            job = self._next_arrival
            self._pull_arrival()
            if job.is_finished:
                # Degenerate jobs (everything skipped) complete on arrival.
                self._record_job_completion(job)
                continue
            self._activate_job(job)
            self.scheduler.on_job_arrival(job, now)

    # ------------------------------------------------------------------ #
    # Scheduling and placement
    # ------------------------------------------------------------------ #
    def _build_context(self) -> SchedulingContext:
        # While every executor is active (all default runs) the flat-list
        # comprehension is the bit-identical fast path; once any pool has
        # draining/retired executors — whatever resized it, the engine's
        # autoscaler or external Cluster.scale_pool calls — they must not
        # skew the batch-size signal nor be offered as preemption victims.
        inactive = self.cluster.inactive_executor_ids()
        if inactive:
            batch_sizes = self.cluster.active_llm_batch_sizes()
        else:
            batch_sizes = [e.batch_size for e in self.cluster.llm_executors]
        context = SchedulingContext(
            time=self._time,
            jobs=list(self._active_jobs.values()),
            free_regular_slots=self.cluster.free_regular_slots(),
            free_llm_slots=self.cluster.free_llm_slots(),
            llm_batch_sizes=batch_sizes,
        )
        if inactive:
            context.inactive_executor_ids = inactive
        context._ready = self._ready
        if self.scheduler.preemptive:
            # The cluster's speed and role maps are static and shared, not
            # copied, so this costs two references per context.
            context.executor_speeds = self.cluster.executor_speeds()
            context.executor_roles = self.cluster.executor_roles()
            context._running = self._running_tasks()
        context._cow_tracker = self._cow
        return context

    def _dispatch(self) -> None:
        if not self._active_jobs:
            return
        # A preemptive scheduler must run even on a full cluster — its
        # scheduling pass can *create* capacity; non-preemptive schedulers
        # keep the original fast path.
        if (
            not self.scheduler.preemptive
            and self.cluster.free_regular_slots() == 0
            and self.cluster.free_llm_slots() == 0
        ):
            return
        backend = self.async_backend
        if backend is not None and not backend.can_request():
            return  # a decision is already in flight (pipelining depth hit)
        context = self._build_context()
        if not context.schedulable_tasks():
            return

        if backend is None:
            decision = self._timed_schedule(context)
        else:
            decision = backend.request(
                self._timed_schedule, context, self._time, self.config.eps
            )
            if decision is None:
                return  # in flight; applied once its apply time comes
        self._apply_decision(decision)

    def _timed_schedule(self, context: SchedulingContext) -> SchedulingDecision:
        """One scheduler invocation, wall-clock timed for Table I."""
        started = wallclock.perf_counter()  # repro: REP003-exempt -- meters real scheduler overhead (Table I), never feeds simulated time
        decision = self.scheduler.schedule(context)
        overhead = wallclock.perf_counter() - started  # repro: REP003-exempt -- meters real scheduler overhead (Table I), never feeds simulated time
        self.metrics.record_scheduler_invocation(overhead)
        return decision

    def _apply_decision(self, decision: SchedulingDecision) -> None:
        """Apply a decision whose tasks are *live* objects (synchronous path)."""
        if decision.preemptions:
            for directive in decision.preemptions:
                self.preempt(directive.task, checkpoint=directive.checkpoint)

        for task in decision.regular_tasks:
            if self.cluster.free_regular_slots() == 0:
                break
            self._place_task(task, TaskType.REGULAR)
        for task in decision.llm_tasks:
            if self.cluster.free_llm_slots() == 0:
                break
            self._place_task(task, TaskType.LLM)

    # ------------------------------------------------------------------ #
    # Asynchronous decisions (stale snapshots, applied at t + latency)
    # ------------------------------------------------------------------ #
    def _apply_due_decisions(self, now: float) -> None:
        """Apply every in-flight decision whose latency window ended."""
        for inflight in self.async_backend.pop_due(now, self.config.eps):
            self.metrics.record_async_decision(inflight.apply_at - inflight.requested_at)
            self.metrics.record_decision_applied(now - inflight.requested_at)
            self._apply_async_decision(inflight)

    def _apply_async_decision(self, inflight) -> None:
        """Apply a decision computed from a snapshot against the live cluster.

        The decision's tasks are snapshot *copies*; each is mapped back onto
        its live counterpart by (job, stage, index) key.  Anything the live
        cluster no longer agrees with is dropped and metered: preemptions of
        tasks that stopped running are no-ops, placements of tasks that are
        no longer pending are stale, and placements that lost their slot to
        a faster actor are conflicts (the task stays pending and is simply
        reconsidered at the next decision — requeue for free).  Metering is
        scoped to the entries the snapshot promised capacity for
        (``snapshot_free_*``, grown by every preemption this decision lands):
        preference lists may exceed capacity by design, and the synchronous
        engine drops the overflow silently too.  So each list is walked only
        until its budget is spent and its type has no free slot.
        """
        decision = inflight.decision
        budget = {
            TaskType.REGULAR: inflight.snapshot_free_regular,
            TaskType.LLM: inflight.snapshot_free_llm,
        }
        # Duplicate preference entries *within one decision* are by-design
        # (the sync path skips them silently); only repeats across decisions
        # signal genuine snapshot staleness, so dedupe before metering.
        seen: Set[str] = set()
        for directive in decision.preemptions:
            live = self._resolve_live_task(directive.task)
            if live is None or live.state is not TaskState.RUNNING:
                self.metrics.record_stale_preemption()
                continue
            if self.preempt(live, checkpoint=directive.checkpoint):
                budget[live.task_type] += 1
        for expected_type, tasks in (
            (TaskType.REGULAR, decision.regular_tasks),
            (TaskType.LLM, decision.llm_tasks),
        ):
            for task in tasks:
                if budget[expected_type] <= 0 and self.cluster.free_slots(expected_type) == 0:
                    break  # nothing later can land (slots only fall) or be metered
                key = task.key()
                if key in seen:
                    continue
                seen.add(key)
                in_budget = budget[expected_type] > 0
                budget[expected_type] -= 1
                live = self._resolve_live_task(task)
                if live is None or live.state is not TaskState.PENDING:
                    if in_budget:
                        self.metrics.record_stale_placement()
                    continue
                job = self._active_jobs[live.job_id]
                stage = job.stage(live.stage_id)
                if (
                    stage.state not in (StageState.READY, StageState.RUNNING)
                    or not stage.visible
                ):
                    if in_budget:
                        self.metrics.record_stale_placement()
                    continue
                free = self.cluster.free_slots(expected_type)
                if (free == 0 or not self._place_task(live, expected_type)) and in_budget:
                    self.metrics.record_placement_conflict()

    def _resolve_live_task(self, task: Task) -> Optional[Task]:
        """Live counterpart of a snapshot task (None if its job is gone).

        Resolution is by (job_id, stage_id, index) key and reads nothing
        but those immutable identity fields, so it is correct regardless of
        what the snapshot handed out: a deep copy, a COW clone, or — when
        the job was never mutated while the snapshot lived — the live task
        object itself.
        """
        job = self._active_jobs.get(task.job_id)
        if job is None:
            return None
        try:
            stage = job.stage(task.stage_id)
        except KeyError:
            return None
        for live in stage.tasks:
            if live.index == task.index:
                return live
        return None

    def preemptable(self, task: Task) -> bool:
        """Whether :meth:`preempt` would checkpoint ``task`` right now.

        False for a task that is not running for an active job of this
        engine, that runs on a draining executor (the drain would swallow
        the freed slot, so capacity strictly shrinks), or that completes at
        this very instant: those are let run out.  An LLM task's progress is
        accrued to the current time first, so "completes now" means at most
        ``eps`` of work is left.  The fleet's migration uses the same guard.
        """
        if task.state is not TaskState.RUNNING or task.executor_id is None:
            return False  # stale: the task finished (or was never placed)
        if task.job_id not in self._active_jobs:
            return False
        if not self.cluster.pool_of_executor(task.executor_id).is_active(task.executor_id):
            return False
        executor = self.cluster.executor(task.executor_id)
        eps = self.config.eps
        if task.task_type is TaskType.REGULAR:
            completion = executor.completion_time()
            return completion is None or completion > self._time + eps
        # advance_to accrues progress on *every* task in the batch; their
        # jobs must land in live snapshots pre-mutation too.
        cow = self._cow
        if cow is not None and cow.active:
            for running in executor.running:
                batch_job = self._active_jobs.get(running.job_id)
                if batch_job is not None:
                    cow.mark_dirty(batch_job)
        executor.advance_to(self._time)
        return task.remaining_work > eps

    def preempt(self, task: Task, checkpoint: bool = True) -> bool:
        """Put a running task back to PENDING; True iff it was preempted.

        ``checkpoint`` conserves the task's progress; otherwise it restarts
        and the lost progress is metered as wasted work.  Tasks that
        :meth:`preemptable` refuses are left running.
        """
        if not self.preemptable(task):
            return False
        job = self._active_jobs[task.job_id]
        llm_index = (
            self.cluster.llm_index(task.executor_id) if task.task_type is TaskType.LLM else None
        )
        self._mark_job_dirty(job)
        wasted = self.cluster.preempt_task(task, self._time, checkpoint=checkpoint)
        if llm_index is not None:
            self._dirty_llm.add(llm_index)
        self.metrics.record_preemption(wasted)
        job.invalidate_schedulable_cache()
        self._ready.touch(job)
        return True

    def _place_task(self, task: Task, expected_type: TaskType) -> bool:
        """Place one task via the placement policy; True iff it started."""
        if task.task_type is not expected_type:
            raise RuntimeError(
                f"scheduler put {task.key()} in the wrong preference list"
            )
        if task.state.name != "PENDING":
            return False  # Already placed by an earlier (duplicate) preference entry.
        job = self._active_jobs.get(task.job_id)
        if job is None:
            return False
        stage = job.stage(task.stage_id)
        if stage.state not in (StageState.READY, StageState.RUNNING) or not stage.visible:
            return False  # Not actually schedulable; ignore the preference entry.
        self._mark_job_dirty(job)
        pool = self.placement.select_pool(self.cluster, task)
        placed = pool.assign(task, self._time) if pool is not None else None
        if placed is None:
            return False
        if expected_type is TaskType.REGULAR:
            index = self.cluster.regular_index(placed)
            finish = self.cluster.regular_executors[index].completion_time()
            self._regular_events.push(finish, index)
        else:
            self._dirty_llm.add(self.cluster.llm_index(placed))
        stage.mark_running()
        job.invalidate_schedulable_cache()
        self._ready.touch(job)
        return True

    # ------------------------------------------------------------------ #
    # Time advance and completions
    # ------------------------------------------------------------------ #
    def _peek_regular_completion(self) -> Optional[float]:
        """Earliest valid regular completion, discarding stale heap entries."""
        queue = self._regular_events
        eps = self.config.eps
        while queue:
            event = queue.peek()
            executor = self.cluster.regular_executors[event.payload]
            completion = executor.completion_time()
            if completion is None or abs(completion - event.time) > eps:
                queue.pop()  # lazy invalidation
                continue
            return event.time
        return None

    def _llm_completion_time(self, index: int) -> Optional[float]:
        """Cached candidate completion time of one LLM executor."""
        task = self._llm_best[index]
        if task is None:
            return None
        return self.cluster.llm_executors[index].completion_time_of(task)

    def _next_llm_completion(self) -> Optional[float]:
        """Earliest LLM completion; only dirty executors are rescanned."""
        if len(self._llm_best) < len(self.cluster.llm_executors):
            # The cluster grew outside _run_autoscaler (external
            # Cluster.scale_pool calls, e.g. from a scheduler hook).
            self._sync_llm_views()
        if self._dirty_llm:
            # Sorted so the rescan order is reproducible: the per-index cache
            # writes are independent, but iterating the raw set would leave
            # the only hash-ordered loop in the event core.
            for index in sorted(self._dirty_llm):
                upcoming = self.cluster.llm_executors[index].next_completion()
                self._llm_best[index] = None if upcoming is None else upcoming[1]
            self._dirty_llm.clear()
        best: Optional[float] = None
        for index in range(len(self._llm_best)):
            completion = self._llm_completion_time(index)
            if completion is not None and (best is None or completion < best):
                best = completion
        return best

    def _next_event_time(self) -> Optional[float]:
        candidates: List[float] = []
        regular = self._peek_regular_completion()
        if regular is not None:
            candidates.append(regular)
        llm = self._next_llm_completion()
        if llm is not None:
            candidates.append(llm)
        if self._next_arrival is not None:
            candidates.append(self._next_arrival.arrival_time)
        # Decisions in flight are pending progress: their apply times
        # drive the clock even when nothing else is happening.
        if self.async_backend is not None:
            apply_time = self.async_backend.next_apply_time()
            if apply_time is not None:
                candidates.append(apply_time)
        # Autoscale checks are an event source too — but only while other
        # activity (or placeable backlog) exists, so a truly deadlocked run
        # still falls through to the deadlock check instead of idling on
        # scale events forever.
        if self.autoscaler is not None and (candidates or self._has_placeable_backlog()):
            candidates.append(self.autoscaler.next_check_time)
        if not candidates:
            return None
        return min(candidates)

    def _has_placeable_backlog(self) -> bool:
        return any(self._ready.jobs(task_type) for task_type in TaskType)

    # ------------------------------------------------------------------ #
    # Autoscaling
    # ------------------------------------------------------------------ #
    def _run_autoscaler(self) -> None:
        """One autoscale check: measure backlog, resize pools, sync indexes."""
        backlog = {TaskType.REGULAR: 0, TaskType.LLM: 0}
        for job in self._active_jobs.values():
            for stage in job.schedulable_stages():
                key = TaskType.LLM if stage.is_llm else TaskType.REGULAR
                backlog[key] += len(stage.pending_tasks())
        events = self.autoscaler.check(self.cluster, backlog, self._time, eps=self.config.eps)
        for event in events:
            self.metrics.record_scale_event(event.to_dict())
        if events:
            self._sync_llm_views()

    def _sync_llm_views(self) -> None:
        """Grow the per-LLM-executor caches after a scale-up added executors."""
        count = len(self.cluster.llm_executors)
        while len(self._llm_best) < count:
            self._dirty_llm.add(len(self._llm_best))
            self._llm_best.append(None)

    def completion_pass(self) -> None:
        """Finish every task due at the current time, then the stages and
        jobs those completions finish."""
        now = self._time
        eps = self.config.eps
        finished_tasks: List[Task] = []

        # Regular executors: pop every due completion event.  Same-time
        # completions finish in pool order, matching the original full scan.
        due: List[int] = []
        queue = self._regular_events
        while queue and queue.peek().time <= now + eps:
            event = queue.pop()
            executor = self.cluster.regular_executors[event.payload]
            completion = executor.completion_time()
            if completion is None or completion > now + eps:
                continue  # stale entry
            due.append(event.payload)
        for index in sorted(set(due)):
            executor = self.cluster.regular_executors[index]
            current = executor.current_task
            if current is not None:
                job = self._active_jobs.get(current.job_id)
                if job is not None:
                    self._mark_job_dirty(job)
            finished_tasks.append(self.cluster.finish_regular_task(executor, now))

        # LLM executors: the cached candidate is the batch's least-remaining
        # task (progress was accrued by advance_to), so the executor can hold
        # finished requests only if that task's remaining work is within eps.
        # Gating on remaining work — not on the candidate completion *time* —
        # matches the reference engine's sweep rule exactly: with batch > 1
        # and a positive latency slope the progress rate is < 1, and a task
        # with remaining work in (eps * rate, eps] must still finish *now*.
        for index, executor in enumerate(self.cluster.llm_executors):
            candidate = self._llm_best[index]
            if candidate is None or candidate.remaining_work > eps:
                continue
            for task in list(executor.running):
                if task.remaining_work <= eps:
                    job = self._active_jobs.get(task.job_id)
                    if job is not None:
                        self._mark_job_dirty(job)
                    self.cluster.finish_llm_task(executor, task, now, eps=eps)
                    finished_tasks.append(task)
                    if task.has_token_model:
                        tier = job.priority if job is not None else "default"
                        self.metrics.record_llm_task_finish(task, tier)
            self._dirty_llm.add(index)

        for task in finished_tasks:
            self.metrics.num_tasks_executed += 1
            job = self._active_jobs.get(task.job_id)
            if job is None:  # pragma: no cover - defensive; jobs outlive their tasks
                continue
            # A finished task is new evidence about its stage's duration; it
            # changes no schedulable set, so the job is stamped, not touched.
            self._ready.stamp(job)
            stage = job.stage(task.stage_id)
            if stage.all_tasks_finished() and stage.state is StageState.RUNNING:
                # Already copied into live snapshots when its finishing task
                # was processed above; re-marking is an O(1) no-op and keeps
                # the mutation locally preceded by its dirty mark.
                self._mark_job_dirty(job)
                job.notify_stage_finished(stage.stage_id, now)
                self._ready.touch(job)
                self.scheduler.on_stage_complete(job, stage, now)
                if job.is_finished:
                    self._record_job_completion(job)

    def _record_job_completion(self, job: Job) -> None:
        if job.jct is None:
            raise RuntimeError(f"job {job.job_id} has no completion time")
        self.metrics.record_job_completion(job.job_id, job.application, job.jct)
        self.scheduler.on_job_complete(job, self._time)
        self._deactivate_job(job)

    # ------------------------------------------------------------------ #
    def _check_for_deadlock(self) -> None:
        """Raise if jobs remain but nothing can ever make progress again."""
        stuck = self.unfinished_jobs()
        if not stuck:
            return
        pending = sum(len(j.schedulable_tasks()) for j in stuck)
        raise RuntimeError(
            f"simulation stalled at t={self._time:.2f}s with {len(stuck)} unfinished "
            f"jobs and {pending} schedulable tasks; the scheduler is not work-conserving"
        )
