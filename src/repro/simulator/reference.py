"""Reference simulation engine: the pre-refactor event loop, kept as an oracle.

This is the seed implementation of :class:`SimulationEngine` before the
indexed fast path landed: it rescans every executor and rebuilds the full
cluster view at every iteration and keeps active jobs in a list (O(n)
removal and membership tests).  One deliberate deviation from the seed:
the shared ``SimulationConfig.eps`` knob (default ``1e-9``) replaces both
the seed's hard-coded ``1e-9`` time epsilon and its ``1e-6`` LLM
remaining-work threshold, so the fast-vs-reference comparison certifies
the *current* completion semantics bit for bit at any eps; at the default
eps, traces can differ from the seed commit by up to 1e-6 seconds on
sub-microsecond completion gaps.

It exists for two reasons:

* **Golden behavior.** The invariant/golden-trace test harness runs the
  fast engine and this reference side by side and asserts bit-identical
  per-job JCTs, so any silent behavior drift in the fast path is caught.
* **Honest speedups.** The engine-throughput benchmark reports the fast
  engine's speedup against this implementation on the same workload.

Do not use it for experiments; it is deliberately slow.
"""

from __future__ import annotations

import time as wallclock
from typing import Dict, List, Optional, Sequence

from repro.dag.job import Job
from repro.dag.stage import StageState
from repro.dag.task import Task, TaskType
from repro.schedulers.base import Scheduler, SchedulingContext
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import SimulationMetrics

__all__ = ["ReferenceSimulationEngine"]

_EPS = 1e-9


class ReferenceSimulationEngine:
    """Seed engine: full per-iteration scans (behavioral oracle, see module doc)."""

    def __init__(
        self,
        jobs: Sequence[Job],
        scheduler: Scheduler,
        cluster: Optional[Cluster] = None,
        config: Optional[SimulationConfig] = None,
        workload_name: str = "",
    ) -> None:
        if not jobs:
            raise ValueError("cannot simulate an empty job list")
        if cluster is None:
            cluster = Cluster()
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self._jobs: List[Job] = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        self._jobs_by_id: Dict[str, Job] = {j.job_id: j for j in self._jobs}
        if len(self._jobs_by_id) != len(self._jobs):
            raise ValueError("duplicate job ids in workload")
        self.metrics = SimulationMetrics(
            scheduler_name=scheduler.name, workload_name=workload_name
        )
        self._time = 0.0
        self._arrival_index = 0
        self._active_jobs: List[Job] = []

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Execute the workload to completion and return the metrics."""
        iterations = 0
        while self._arrival_index < len(self._jobs) or self._active_jobs:
            iterations += 1
            if iterations > self.config.max_iterations:
                raise RuntimeError("simulation exceeded max_iterations; likely a livelock")
            if self._time > self.config.max_simulated_time:
                raise RuntimeError("simulation exceeded max_simulated_time")

            self._admit_arrivals(self._time)
            self._dispatch()

            next_time = self._next_event_time()
            if next_time is None:
                self._check_for_deadlock()
                break
            self._time = max(self._time, next_time)
            self.cluster.advance_to(self._time)
            self._process_completions(self._time)

        self.metrics.num_events = iterations
        self.metrics.makespan = self._time
        self.metrics.utilization = self.cluster.utilization(max(self._time, _EPS))
        # Same drain as the fast engine's finalize (executors retire in
        # place, so every ITL sample is collected exactly once).
        self.metrics.num_llm_executors = len(self.cluster.llm_executors)
        for executor in self.cluster.llm_executors:
            self.metrics.record_itl_samples(executor.drain_itl_samples())
        return self.metrics

    @property
    def current_time(self) -> float:
        return self._time

    # ------------------------------------------------------------------ #
    def _admit_arrivals(self, now: float) -> None:
        while (
            self._arrival_index < len(self._jobs)
            and self._jobs[self._arrival_index].arrival_time <= now + self.config.eps
        ):
            job = self._jobs[self._arrival_index]
            self._arrival_index += 1
            if job.is_finished:
                # Degenerate jobs (everything skipped) complete on arrival.
                self._record_job_completion(job)
                continue
            self._active_jobs.append(job)
            self.scheduler.on_job_arrival(job, now)

    # ------------------------------------------------------------------ #
    def _build_context(self) -> SchedulingContext:
        return SchedulingContext(
            time=self._time,
            jobs=list(self._active_jobs),
            free_regular_slots=len(self.cluster.idle_regular_executors()),
            free_llm_slots=sum(e.free_slots for e in self.cluster.llm_executors),
            llm_batch_sizes=[e.batch_size for e in self.cluster.llm_executors],
        )

    def _dispatch(self) -> None:
        if not self._active_jobs:
            return
        free_regular = len(self.cluster.idle_regular_executors())
        free_llm = sum(e.free_slots for e in self.cluster.llm_executors)
        if free_regular == 0 and free_llm == 0:
            return
        context = self._build_context()
        if not context.schedulable_tasks():
            return

        started = wallclock.perf_counter()  # repro: REP003-exempt -- meters real scheduler overhead (Table I), never feeds simulated time
        decision = self.scheduler.schedule(context)
        overhead = wallclock.perf_counter() - started  # repro: REP003-exempt -- meters real scheduler overhead (Table I), never feeds simulated time
        self.metrics.record_scheduler_invocation(overhead)

        for task in decision.regular_tasks:
            if len(self.cluster.idle_regular_executors()) == 0:
                break
            self._place_task(task, TaskType.REGULAR)
        for task in decision.llm_tasks:
            if sum(e.free_slots for e in self.cluster.llm_executors) == 0:
                break
            self._place_task(task, TaskType.LLM)

    def _place_task(self, task: Task, expected_type: TaskType) -> None:
        if task.task_type is not expected_type:
            raise RuntimeError(
                f"scheduler put {task.key()} in the wrong preference list"
            )
        if task.state.name != "PENDING":
            return  # Already placed by an earlier (duplicate) preference entry.
        job = self._jobs_by_id.get(task.job_id)
        if job is None or job not in self._active_jobs:
            return
        stage = job.stage(task.stage_id)
        if stage.state not in (StageState.READY, StageState.RUNNING) or not stage.visible:
            return  # Not actually schedulable; ignore the preference entry.
        if expected_type is TaskType.REGULAR:
            placed = self.cluster.assign_regular_task(task, self._time)
        else:
            placed = self.cluster.assign_llm_task(task, self._time)
        if placed is not None:
            stage.mark_running()
            job.invalidate_schedulable_cache()

    # ------------------------------------------------------------------ #
    def _next_event_time(self) -> Optional[float]:
        candidates: List[float] = []
        completion = self.cluster.next_completion()
        if completion is not None:
            candidates.append(completion[0])
        if self._arrival_index < len(self._jobs):
            candidates.append(self._jobs[self._arrival_index].arrival_time)
        if not candidates:
            return None
        return min(candidates)

    def _process_completions(self, now: float) -> None:
        finished_tasks: List[Task] = []
        for executor in self.cluster.regular_executors:
            completion = executor.completion_time()
            if completion is not None and completion <= now + self.config.eps:
                finished_tasks.append(self.cluster.finish_regular_task(executor, now))
        for executor in self.cluster.llm_executors:
            for task in list(executor.running):
                # Honors the shared eps knob (the seed hard-coded 1e-6 here)
                # so fast-vs-reference traces stay bit-identical.
                if task.remaining_work <= self.config.eps:
                    self.cluster.finish_llm_task(executor, task, now, eps=self.config.eps)
                    finished_tasks.append(task)
                    if task.has_token_model:
                        owner = self._jobs_by_id.get(task.job_id)
                        tier = owner.priority if owner is not None else "default"
                        self.metrics.record_llm_task_finish(task, tier)

        for task in finished_tasks:
            self.metrics.num_tasks_executed += 1
            job = self._jobs_by_id[task.job_id]
            stage = job.stage(task.stage_id)
            if stage.all_tasks_finished() and stage.state is StageState.RUNNING:
                job.notify_stage_finished(stage.stage_id, now)
                self.scheduler.on_stage_complete(job, stage, now)
                if job.is_finished:
                    self._record_job_completion(job)

    def _record_job_completion(self, job: Job) -> None:
        if job.jct is None:
            raise RuntimeError(f"job {job.job_id} has no completion time")
        self.metrics.record_job_completion(job.job_id, job.application, job.jct)
        self.scheduler.on_job_complete(job, self._time)
        if job in self._active_jobs:
            self._active_jobs.remove(job)

    # ------------------------------------------------------------------ #
    def _check_for_deadlock(self) -> None:
        """Raise if jobs remain but nothing can ever make progress again."""
        stuck = [j for j in self._active_jobs if not j.is_finished]
        if not stuck:
            return
        pending = sum(len(j.schedulable_tasks()) for j in stuck)
        raise RuntimeError(
            f"simulation stalled at t={self._time:.2f}s with {len(stuck)} unfinished "
            f"jobs and {pending} schedulable tasks; the scheduler is not work-conserving"
        )
