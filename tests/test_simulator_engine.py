"""End-to-end tests for the discrete-event simulation engine."""

import pytest

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.schedulers.base import Scheduler, SchedulingDecision
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload


def make_stage(job_id, stage_id, stage_type, durations, **kwargs):
    spec = StageSpec(stage_id=stage_id, stage_type=stage_type, name=stage_id)
    return Stage(spec, job_id=job_id, task_durations=durations, **kwargs)


def simple_job(job_id, arrival, llm_work=2.0, regular_work=1.0):
    """LLM stage followed by a regular stage."""
    job = Job(job_id, "simple", arrival)
    job.add_stage(make_stage(job_id, "llm", StageType.LLM, [llm_work]))
    job.add_stage(make_stage(job_id, "reg", StageType.REGULAR, [regular_work]))
    job.add_dependency("llm", "reg")
    job.finalize()
    return job


def small_cluster(**overrides):
    defaults = dict(num_regular_executors=1, num_llm_executors=1, max_batch_size=2, latency_slope=0.0)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestBasicExecution:
    def test_single_job_completes_with_exact_jct(self):
        job = simple_job("j0", arrival=0.0, llm_work=2.0, regular_work=1.0)
        engine = SimulationEngine([job], FcfsScheduler(), cluster=small_cluster())
        metrics = engine.run()
        assert job.is_finished
        assert metrics.average_jct == pytest.approx(3.0)
        assert metrics.makespan == pytest.approx(3.0)

    def test_arrival_time_respected(self):
        job = simple_job("j0", arrival=5.0)
        engine = SimulationEngine([job], FcfsScheduler(), cluster=small_cluster())
        metrics = engine.run()
        assert job.finish_time == pytest.approx(8.0)
        assert metrics.average_jct == pytest.approx(3.0)

    def test_two_jobs_queue_on_single_llm_executor(self):
        cluster = small_cluster(max_batch_size=1)
        jobs = [simple_job("j0", 0.0), simple_job("j1", 0.0)]
        engine = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster)
        metrics = engine.run()
        # FCFS: j0 LLM 0-2, j0 reg 2-3; j1 LLM 2-4, j1 reg 4-5.
        assert metrics.job_completion_times["j0"] == pytest.approx(3.0)
        assert metrics.job_completion_times["j1"] == pytest.approx(5.0)

    def test_batching_runs_llm_tasks_concurrently(self):
        cluster = small_cluster(max_batch_size=2, latency_slope=0.0)
        jobs = [simple_job("j0", 0.0), simple_job("j1", 0.0)]
        metrics = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster).run()
        # With perfect batching both LLM stages run 0-2 concurrently; the
        # single regular executor then serialises the two regular stages.
        assert metrics.job_completion_times["j0"] == pytest.approx(3.0)
        assert metrics.job_completion_times["j1"] == pytest.approx(4.0)

    def test_batching_slowdown_visible_in_jct(self):
        cluster = small_cluster(max_batch_size=2, latency_slope=1.0)
        jobs = [simple_job("j0", 0.0, regular_work=0.5), simple_job("j1", 0.0, regular_work=0.5)]
        metrics = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster).run()
        # Batch of 2 at slope 1.0 halves the speed: both LLM stages take 4s.
        assert min(metrics.job_completion_times.values()) == pytest.approx(4.5)

    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine([], FcfsScheduler(), cluster=small_cluster())

    def test_duplicate_job_ids_rejected(self):
        jobs = [simple_job("j0", 0.0), simple_job("j0", 1.0)]
        with pytest.raises(ValueError):
            SimulationEngine(jobs, FcfsScheduler(), cluster=small_cluster())


class TestSchedulerInteraction:
    class CountingScheduler(FcfsScheduler):
        name = "counting"

        def __init__(self):
            self.arrivals = 0
            self.stage_completions = 0
            self.job_completions = 0

        def on_job_arrival(self, job, time):
            self.arrivals += 1

        def on_stage_complete(self, job, stage, time):
            self.stage_completions += 1

        def on_job_complete(self, job, time):
            self.job_completions += 1

    def test_lifecycle_hooks_invoked(self):
        scheduler = self.CountingScheduler()
        jobs = [simple_job("j0", 0.0), simple_job("j1", 0.5)]
        metrics = SimulationEngine(jobs, scheduler, cluster=small_cluster()).run()
        assert scheduler.arrivals == 2
        assert scheduler.stage_completions == 4
        assert scheduler.job_completions == 2
        assert metrics.num_scheduler_invocations > 0
        assert metrics.num_tasks_executed == 4

    class LazyScheduler(Scheduler):
        """Never schedules anything — must trigger the deadlock guard."""

        name = "lazy"

        def schedule(self, context):
            return SchedulingDecision()

    def test_non_work_conserving_scheduler_detected(self):
        job = simple_job("j0", 0.0)
        engine = SimulationEngine([job], self.LazyScheduler(), cluster=small_cluster())
        with pytest.raises(RuntimeError, match="work-conserving"):
            engine.run()

    def test_stale_preference_entries_ignored(self):
        class DuplicatePreferenceScheduler(FcfsScheduler):
            name = "dup"

            def schedule(self, context):
                decision = super().schedule(context)
                # Repeat every task three times; the engine must not crash or
                # double-place them.
                return SchedulingDecision(
                    regular_tasks=decision.regular_tasks * 3,
                    llm_tasks=decision.llm_tasks * 3,
                )

        jobs = [simple_job("j0", 0.0), simple_job("j1", 0.0)]
        metrics = SimulationEngine(jobs, DuplicatePreferenceScheduler(), cluster=small_cluster()).run()
        assert len(metrics.job_completion_times) == 2


class TestDynamicWorkloads:
    def test_planning_job_with_reveal_completes(self):
        job = Job("j0", "planning", 0.0)
        job.add_stage(make_stage("j0", "plan", StageType.LLM, [1.0]))
        job.add_stage(make_stage("j0", "tool_a", StageType.REGULAR, [2.0], visible=False))
        job.add_stage(make_stage("j0", "tool_b", StageType.REGULAR, [1.0], visible=False))
        job.add_stage(make_stage("j0", "dyn", StageType.DYNAMIC, []))
        job.add_dependency("plan", "tool_a")
        job.add_dependency("plan", "tool_b")
        job.add_dependency("tool_a", "dyn")
        job.add_dependency("tool_b", "dyn")
        job.add_reveal("plan", "tool_a")
        job.add_reveal("plan", "tool_b")
        job.finalize()
        cluster = small_cluster(num_regular_executors=2)
        metrics = SimulationEngine([job], FcfsScheduler(), cluster=cluster).run()
        # plan 0-1, tools run in parallel 1-3 and 1-2, dyn completes at 3.
        assert metrics.job_completion_times["j0"] == pytest.approx(3.0)

    def test_chain_job_with_skipped_iterations(self):
        job = Job("j0", "chain", 0.0)
        job.add_stage(make_stage("j0", "gen_0", StageType.LLM, [1.0]))
        job.add_stage(make_stage("j0", "exec_0", StageType.REGULAR, [0.5]))
        job.add_stage(make_stage("j0", "gen_1", StageType.LLM, [1.0], will_execute=False))
        job.add_stage(make_stage("j0", "exec_1", StageType.REGULAR, [0.5], will_execute=False))
        job.add_dependency("gen_0", "exec_0")
        job.add_dependency("exec_0", "gen_1")
        job.add_dependency("gen_1", "exec_1")
        job.finalize()
        metrics = SimulationEngine([job], FcfsScheduler(), cluster=small_cluster()).run()
        assert metrics.job_completion_times["j0"] == pytest.approx(1.5)

    def test_realistic_workload_runs_to_completion(self):
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=30, arrival_rate=1.5, seed=3)
        jobs = generate_workload(spec)
        cluster = Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=3, max_batch_size=8))
        metrics = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster, workload_name="mixed").run()
        assert len(metrics.job_completion_times) == 30
        assert metrics.average_jct > 0
        assert metrics.makespan > 0
        assert 0 < metrics.utilization["llm"] <= 1.0


class TestScale:
    def test_1k_concurrent_jobs_complete(self):
        """Regression for the former O(n) active-job list: 1000 jobs arriving
        at once must run through the job index without quadratic scans."""
        jobs = []
        for i in range(1000):
            job = Job(f"j{i:04d}", "tiny", 0.0)
            job.add_stage(make_stage(f"j{i:04d}", "llm", StageType.LLM, [0.5]))
            job.finalize()
            jobs.append(job)
        cluster = small_cluster(num_llm_executors=4, max_batch_size=64, latency_slope=0.0)
        metrics = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster).run()
        assert len(metrics.job_completion_times) == 1000
        assert metrics.num_tasks_executed == 1000


class TestOpenLoopStreaming:
    def job_stream(self, count, gap=0.25):
        for i in range(count):
            yield simple_job(f"s{i:04d}", arrival=i * gap)

    def test_generator_workload_runs_to_completion(self):
        cluster = small_cluster(num_regular_executors=2, max_batch_size=4)
        engine = SimulationEngine(self.job_stream(50), FcfsScheduler(), cluster=cluster)
        metrics = engine.run()
        assert len(metrics.job_completion_times) == 50
        assert engine.num_active_jobs == 0

    def test_streamed_jobs_match_materialized_run(self):
        materialized = SimulationEngine(
            [simple_job(f"s{i:04d}", arrival=i * 0.25) for i in range(30)],
            FcfsScheduler(),
            cluster=small_cluster(num_regular_executors=2, max_batch_size=4),
        ).run()
        streamed = SimulationEngine(
            self.job_stream(30),
            FcfsScheduler(),
            cluster=small_cluster(num_regular_executors=2, max_batch_size=4),
        ).run()
        assert streamed.job_completion_times == materialized.job_completion_times
        assert streamed.makespan == materialized.makespan

    def test_completed_jobs_released_from_engine_index(self):
        engine = SimulationEngine(
            self.job_stream(40, gap=2.0),  # sparse arrivals: ~1 active at a time
            FcfsScheduler(),
            cluster=small_cluster(),
        )
        peak = 0
        original = engine._admit_arrivals

        def tracking_admit(now):
            nonlocal peak
            original(now)
            peak = max(peak, engine.num_active_jobs)

        engine._admit_arrivals = tracking_admit
        metrics = engine.run()
        assert len(metrics.job_completion_times) == 40
        assert peak <= 3  # far below 40: the stream was never materialized

    def test_out_of_order_stream_rejected(self):
        def bad_stream():
            yield simple_job("a", arrival=5.0)
            yield simple_job("b", arrival=1.0)

        engine = SimulationEngine(bad_stream(), FcfsScheduler(), cluster=small_cluster())
        with pytest.raises(ValueError, match="not time-ordered"):
            engine.run()

    def test_duplicate_ids_in_stream_rejected(self):
        def dup_stream():
            yield simple_job("a", arrival=0.0)
            yield simple_job("a", arrival=1.0)

        engine = SimulationEngine(dup_stream(), FcfsScheduler(), cluster=small_cluster())
        with pytest.raises(ValueError, match="duplicate job id"):
            engine.run()


class TestSimulationConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_simulated_time=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SimulationConfig(eps=0)

    def llm_only_job(self, job_id, work):
        job = Job(job_id, "llm_only", 0.0)
        job.add_stage(make_stage(job_id, "llm", StageType.LLM, [work]))
        job.finalize()
        return job

    def test_eps_knob_controls_llm_completion_threshold(self):
        # Two batched LLM tasks finishing 5e-4s apart: with a coarse eps the
        # near-finished task is swept up at the first completion event; with
        # the default fine eps it gets its own later event.
        def run(eps):
            jobs = [self.llm_only_job("j0", 1.0), self.llm_only_job("j1", 1.0005)]
            return SimulationEngine(
                jobs,
                FcfsScheduler(),
                cluster=small_cluster(max_batch_size=2, latency_slope=0.0),
                config=SimulationConfig(eps=eps),
            ).run()

        coarse = run(1e-2)
        assert coarse.job_completion_times["j1"] == coarse.job_completion_times["j0"]
        fine = run(1e-9)
        assert fine.job_completion_times["j1"] > fine.job_completion_times["j0"]

    def test_coarse_eps_sweep_matches_reference_engine(self):
        # Regression: the fast path must gate LLM completion sweeps on the
        # candidate task's *remaining work* (the reference rule), not on its
        # completion time.  With batch 2 and slope 0.06 the progress rate is
        # 1/1.06, so at the t=1.0 regular-completion event the LLM task
        # below has remaining work 0.0099 <= eps but a completion time of
        # ~1.0105 > now + eps; a time-based gate deferred it.
        from repro.simulator.reference import ReferenceSimulationEngine

        def build_jobs():
            reg = Job("r0", "reg_only", 0.0)
            reg.add_stage(make_stage("r0", "reg", StageType.REGULAR, [1.0]))
            reg.finalize()
            near = self.llm_only_job("l0", 0.9533)
            far = self.llm_only_job("l1", 2.0)
            return [reg, near, far]

        def run(engine_cls):
            return engine_cls(
                build_jobs(),
                FcfsScheduler(),
                cluster=small_cluster(max_batch_size=2, latency_slope=0.06),
                config=SimulationConfig(eps=1e-2),
            ).run()

        fast = run(SimulationEngine)
        reference = run(ReferenceSimulationEngine)
        assert fast.job_completion_times == reference.job_completion_times
        assert fast.job_completion_times["l0"] == pytest.approx(1.0)

    def test_iteration_guard_triggers(self):
        job = simple_job("j0", 0.0)
        engine = SimulationEngine(
            [job],
            FcfsScheduler(),
            cluster=small_cluster(),
            config=SimulationConfig(max_iterations=1),
        )
        with pytest.raises(RuntimeError, match="max_iterations"):
            engine.run()
