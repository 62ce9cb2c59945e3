"""Preemption invariants: work conservation, no double placement, JCT wins.

The acceptance bar for the preemptive extension:

* checkpoint/resume conserves work exactly (no progress lost, no work
  double-counted on the executors),
* a task is never placed twice concurrently,
* the default (non-preemptive) engine path is untouched — covered by the
  golden-trace suite, re-asserted here via metrics counters,
* preemptive SRTF beats non-preemptive SRTF on mean JCT under a bursty
  MMPP workload.
"""

import pytest

from repro.dag.task import Task, TaskState, TaskType
from repro.schedulers.base import (
    PreemptionDirective,
    Scheduler,
    SchedulingDecision,
)
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.schedulers.srtf import SrtfScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.executor import LLMExecutor, RegularExecutor
from repro.workloads.arrivals import BurstyProcess, open_loop_jobs

def true_remaining(job, context):
    return job.true_remaining_work()


def bursty_stream(seed=21, max_jobs=120):
    process = BurstyProcess(
        base_rate=0.4,
        burst_rate=6.0,
        mean_normal_duration=80.0,
        mean_burst_duration=15.0,
        seed=seed,
    )
    return open_loop_jobs(process, seed=seed, max_jobs=max_jobs)


def small_cluster():
    return Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=2, max_batch_size=4))


def run_bursty(scheduler, seed=21, max_jobs=120):
    engine = SimulationEngine(
        bursty_stream(seed=seed, max_jobs=max_jobs), scheduler, cluster=small_cluster()
    )
    metrics = engine.run()
    return engine, metrics


# --------------------------------------------------------------------------- #
# Unit level: task and executor checkpointing
# --------------------------------------------------------------------------- #
class TestTaskPreemption:
    def test_checkpoint_conserves_progress(self):
        task = Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=4.0)
        task.mark_running(0.0, "reg-0")
        task.advance(1.5)
        wasted = task.mark_preempted(checkpoint=True)
        assert wasted == 0.0
        assert task.state is TaskState.PENDING
        assert task.remaining_work == pytest.approx(2.5)
        assert task.executor_id is None
        assert task.num_preemptions == 1

    def test_restart_discards_progress(self):
        task = Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=4.0)
        task.mark_running(0.0, "llm-0")
        task.advance(1.5)
        wasted = task.mark_preempted(checkpoint=False)
        assert wasted == pytest.approx(1.5)
        assert task.remaining_work == pytest.approx(4.0)

    def test_pending_task_cannot_be_preempted(self):
        task = Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=1.0)
        with pytest.raises(RuntimeError):
            task.mark_preempted()


class TestExecutorPreemption:
    def test_regular_checkpoint_then_resume(self):
        executor = RegularExecutor("reg-0")
        task = Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=5.0)
        executor.assign(task, 0.0)
        wasted = executor.preempt_current(2.0)
        assert wasted == 0.0
        assert executor.is_idle
        assert task.remaining_work == pytest.approx(3.0)
        # Resume elsewhere: completion reflects only the remaining work.
        resumed = RegularExecutor("reg-1")
        resumed.assign(task, 10.0)
        assert resumed.completion_time() == pytest.approx(13.0)

    def test_llm_preempt_speeds_up_batch(self):
        executor = LLMExecutor("llm-0", max_batch_size=2)
        keep = Task(job_id="a", stage_id="s", task_type=TaskType.LLM, work=4.0)
        kick = Task(job_id="b", stage_id="s", task_type=TaskType.LLM, work=4.0)
        executor.add_task(keep, 0.0)
        executor.add_task(kick, 0.0)
        rate_before = executor._rate()
        executor.preempt_task(kick, 1.0)
        assert kick.state is TaskState.PENDING
        assert kick.progress == pytest.approx(1.0 * rate_before)
        assert executor.batch_size == 1
        assert executor._rate() > rate_before


# --------------------------------------------------------------------------- #
# Engine level
# --------------------------------------------------------------------------- #
class TestEnginePreemption:
    def test_preemptive_srtf_beats_srtf_on_bursty_mmpp(self):
        _, srtf = run_bursty(SrtfScheduler(remaining_estimator=true_remaining))
        _, preemptive = run_bursty(
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining)
        )
        assert len(srtf.job_completion_times) == len(preemptive.job_completion_times) == 120
        assert preemptive.num_preemptions > 0
        assert preemptive.wasted_work == 0.0  # checkpointing conserves work
        assert preemptive.average_jct < srtf.average_jct

    def test_work_conservation_under_checkpoint_resume(self):
        # Materialize the stream so job/task state survives completion.
        jobs = list(bursty_stream(max_jobs=60))
        engine = SimulationEngine(
            jobs,
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining),
            cluster=small_cluster(),
        )
        metrics = engine.run()
        assert metrics.num_preemptions > 0

        finished = [t for job in jobs for s in job.stages.values() for t in s.tasks if t.is_finished]
        # Every finished task carries exactly its work as progress — no
        # progress lost to a checkpoint, none double-counted on resume.
        assert all(t.progress == pytest.approx(t.work) for t in finished)
        # Nothing is left running or half-done on an executor.
        assert all(
            t.state is not TaskState.RUNNING
            for job in jobs
            for s in job.stages.values()
            for t in s.tasks
        )
        # Regular executors bill exactly the work they ran (speed 1):
        # preempted-and-resumed segments must add up to the task work.
        finished_regular_work = sum(
            t.work for t in finished if t.task_type is TaskType.REGULAR
        )
        total_regular_busy = sum(e.busy_time for e in engine.cluster.regular_executors)
        assert total_regular_busy == pytest.approx(finished_regular_work, rel=1e-9)

    def test_no_double_placement_and_all_tasks_finish(self):
        engine, metrics = run_bursty(
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining), max_jobs=60
        )
        # The engine raises on any attempt to run a non-pending task, so a
        # completed run is itself the no-double-placement certificate; the
        # stronger check: every job left the active set fully finished.
        assert engine.num_active_jobs == 0
        assert len(metrics.job_completion_times) == 60

    def test_preemptive_run_is_deterministic(self):
        _, first = run_bursty(
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining), max_jobs=60
        )
        _, second = run_bursty(
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining), max_jobs=60
        )
        assert first.job_completion_times == second.job_completion_times
        assert first.num_preemptions == second.num_preemptions

    def test_non_preemptive_runs_never_preempt(self):
        _, metrics = run_bursty(SrtfScheduler(remaining_estimator=true_remaining), max_jobs=40)
        assert metrics.num_preemptions == 0
        assert metrics.wasted_work == 0.0
        assert metrics.scale_events == []

    def test_victim_on_draining_executor_is_skipped(self):
        """Preempting a draining executor's task would shrink capacity:
        the drain swallows the freed slot, so the engine must let it run."""
        from repro.simulator.pool import PoolSpec

        cluster = Cluster(
            pools=[
                PoolSpec("cpu", TaskType.REGULAR, 1, min_executors=0),
                PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=2, min_executors=1),
            ]
        )
        jobs = list(bursty_stream(max_jobs=5))
        engine = SimulationEngine(
            jobs,
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining),
            cluster=cluster,
        )
        task = Task(job_id=jobs[0].job_id, stage_id="x", task_type=TaskType.REGULAR, work=9.0)
        engine._active_jobs[jobs[0].job_id] = jobs[0]
        placed = cluster.assign_regular_task(task, 0.0)
        assert placed is not None
        cluster.pool("cpu").scale_down(1)  # busy executor drains
        assert not cluster.pool("cpu").is_active(placed)
        assert engine.preempt(task) is False
        assert task.state is TaskState.RUNNING  # skipped, still running
        assert engine.metrics.num_preemptions == 0

    def test_scheduler_never_targets_inactive_executors(self):
        """The context flags draining/retired executors; the scheduler must
        spend its victim budget on eligible tasks only."""
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType
        from repro.schedulers.base import SchedulingContext

        def regular_job(job_id, work):
            job = Job(job_id, "app", 0.0)
            job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [work]))
            job.finalize()
            return job

        long_job = regular_job("long", 100.0)
        other_job = regular_job("other", 50.0)
        blocked_job = regular_job("blocked", 1.0)
        long_task = long_job.stage("reg").tasks[0]
        other_task = other_job.stage("reg").tasks[0]
        long_task.mark_running(0.0, "reg-0")
        other_task.mark_running(0.0, "reg-1")

        scheduler = PreemptiveSrtfScheduler(remaining_estimator=true_remaining)
        context = SchedulingContext(
            time=0.0,
            jobs=[long_job, other_job, blocked_job],
            free_regular_slots=0,
            free_llm_slots=0,
            inactive_executor_ids={"reg-0"},  # the longest-remaining victim drains
        )
        decision = scheduler.schedule(context)
        targeted = {d.task.uid for d in decision.preemptions}
        # Without the inactive filter SRTF would pick long_task (remaining
        # 100 > 50); with it, the budget goes to the eligible victim.
        assert targeted == {other_task.uid}

    def test_stale_directives_are_skipped(self):
        class OverzealousScheduler(Scheduler):
            """Preempts tasks that already finished (stale directives)."""

            name = "overzealous"
            preemptive = True

            def __init__(self):
                self._finished = []

            def on_stage_complete(self, job, stage, time):
                self._finished.extend(stage.tasks)

            def schedule(self, context):
                decision = SchedulingDecision.from_tasks(context.schedulable_tasks())
                decision.preemptions = [
                    PreemptionDirective(task=t) for t in self._finished[-4:]
                ]
                return decision

        engine, metrics = run_bursty(OverzealousScheduler(), max_jobs=30)
        assert len(metrics.job_completion_times) == 30
        assert metrics.num_preemptions == 0  # every directive was stale


class TestVictimFloor:
    """Near-finish victims are pure churn: their slot frees at the next
    completion event anyway, and restart-from-scratch preemption discards
    almost the whole task.  The remaining-time floor must skip them."""

    def test_floor_reduces_wasted_work_on_bursty_mmpp(self):
        _, greedy = run_bursty(
            PreemptiveSrtfScheduler(
                remaining_estimator=true_remaining,
                min_victim_remaining=0.0,
                checkpoint=False,
            )
        )
        _, floored = run_bursty(
            PreemptiveSrtfScheduler(
                remaining_estimator=true_remaining,
                min_victim_remaining=0.5,
                checkpoint=False,
            )
        )
        assert greedy.wasted_work > 0
        assert floored.wasted_work < greedy.wasted_work
        # Sparing nearly-done victims must not regress mean JCT.
        assert floored.average_jct <= greedy.average_jct * 1.01
        assert len(floored.job_completion_times) == len(greedy.job_completion_times)

    def test_default_floor_preserves_checkpointed_behavior(self):
        """The eps-scale default only excludes effectively-finished tasks,
        so the checkpointing scheduler's trace is unchanged."""
        _, zero = run_bursty(
            PreemptiveSrtfScheduler(remaining_estimator=true_remaining, min_victim_remaining=0.0)
        )
        _, default = run_bursty(PreemptiveSrtfScheduler(remaining_estimator=true_remaining))
        assert default.job_completion_times == zero.job_completion_times
        assert default.num_preemptions == zero.num_preemptions

    def test_floor_skips_near_finish_victim_for_next_eligible(self):
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType
        from repro.schedulers.base import SchedulingContext

        def regular_job(job_id, work, arrival=0.0):
            job = Job(job_id, "app", arrival)
            job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [work]))
            job.finalize()
            return job

        # The longest-remaining job's task is milliseconds from finishing;
        # the next victim down still has real time to run.
        almost_done = regular_job("long", 100.0)
        mid_job = regular_job("mid", 50.0)
        blocked_job = regular_job("blocked", 1.0, arrival=99.0)
        near_task = almost_done.stage("reg").tasks[0]
        mid_task = mid_job.stage("reg").tasks[0]
        near_task.mark_running(0.0, "reg-0")   # at t=99.9: ~0.1s remaining
        mid_task.mark_running(99.0, "reg-1")   # at t=99.9: ~49.1s remaining

        scheduler = PreemptiveSrtfScheduler(
            remaining_estimator=true_remaining, min_victim_remaining=0.5
        )
        context = SchedulingContext(
            time=99.9,
            jobs=[almost_done, mid_job, blocked_job],
            free_regular_slots=0,
            free_llm_slots=0,
        )
        decision = scheduler.schedule(context)
        targeted = {d.task.uid for d in decision.preemptions}
        # Without the floor SRTF would checkpoint near_task (its job has
        # remaining 100 > 50); with it, the budget goes to mid_task.
        assert targeted == {mid_task.uid}

    def test_floor_accounts_for_executor_speed(self):
        """On a 2x pool a task's wall-clock remaining time is half its
        remaining work; the floor must spare it once the *wall* time is
        below the threshold (context carries the executor speed map)."""
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType
        from repro.schedulers.base import SchedulingContext

        def regular_job(job_id, work, arrival=0.0):
            job = Job(job_id, "app", arrival)
            job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [work]))
            job.finalize()
            return job

        fast_job = regular_job("fast", 100.0)
        blocked_job = regular_job("blocked", 1.0, arrival=49.0)
        fast_task = fast_job.stage("reg").tasks[0]
        fast_task.mark_running(0.0, "turbo-0")

        scheduler = PreemptiveSrtfScheduler(
            remaining_estimator=true_remaining, min_victim_remaining=0.5
        )
        # At t=49.9 on a speed-2.0 executor the task has 100/2 - 49.9 =
        # 0.1s of wall time left — below the floor, so no preemption.
        context = SchedulingContext(
            time=49.9,
            jobs=[fast_job, blocked_job],
            free_regular_slots=0,
            free_llm_slots=0,
            executor_speeds={"turbo-0": 2.0},
        )
        assert scheduler.schedule(context).preemptions == []
        # Without the speed map the same task looks 50.1s from finishing
        # and gets needlessly checkpointed.
        context_no_speeds = SchedulingContext(
            time=49.9,
            jobs=[fast_job, blocked_job],
            free_regular_slots=0,
            free_llm_slots=0,
        )
        assert scheduler.schedule(context_no_speeds).preemptions != []

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            PreemptiveSrtfScheduler(min_victim_remaining=-0.1)


class TestRegistry:
    def test_preemptive_name_behind_flag(self):
        assert "srtf_preempt" not in available_schedulers()
        assert "srtf_preempt" in available_schedulers(every=True)

    def test_factory_builds_preemptive_srtf(self):
        from repro.schedulers.priors import ApplicationPriors
        from repro.workloads.mixtures import default_applications

        priors = ApplicationPriors.from_applications(
            default_applications().values(), n_samples=5, seed=1
        )
        scheduler = create_scheduler("srtf_preempt", priors=priors)
        assert isinstance(scheduler, PreemptiveSrtfScheduler)
        assert scheduler.preemptive is True
