"""Tests for the LLMSched scheduler (Algorithm 1)."""

import pytest

from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.schedulers.base import SchedulingContext
from repro.schedulers.registry import create_scheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.utils.rng import make_rng
from repro.workloads import (
    CodeGenerationApplication,
    SequenceSortingApplication,
    TaskAutomationApplication,
    WebSearchApplication,
)
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, default_applications, generate_workload


@pytest.fixture(scope="module")
def profiler():
    instance = BayesianProfiler()
    instance.fit(
        [
            SequenceSortingApplication(),
            CodeGenerationApplication(),
            WebSearchApplication(),
            TaskAutomationApplication(),
        ],
        n_profile_jobs=80,
        seed=3,
    )
    return instance


def make_context(jobs, time=0.0):
    return SchedulingContext(
        time=time, jobs=list(jobs), free_regular_slots=4, free_llm_slots=8, llm_batch_sizes=[1, 1]
    )


class TestConfig:
    def test_defaults_valid(self):
        config = LLMSchedConfig()
        assert 0 <= config.epsilon <= 1
        assert 0 <= config.sampling_ratio <= 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LLMSchedConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            LLMSchedConfig(sampling_ratio=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("use_bn", "false"),
            ("use_uncertainty", 1),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("epsilon", "0.5"),
        ],
    )
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LLMSchedConfig(**{field: value})


class TestSchedulingBehaviour:
    def test_all_schedulable_tasks_are_returned(self, profiler):
        rng = make_rng(0)
        jobs = [
            SequenceSortingApplication().sample_job("a", 0.0, rng),
            CodeGenerationApplication().sample_job("b", 0.0, rng),
        ]
        scheduler = LLMSchedScheduler(profiler)
        decision = scheduler.schedule(make_context(jobs))
        schedulable = {t.uid for j in jobs for t in j.schedulable_tasks()}
        returned = {t.uid for t in decision.llm_tasks + decision.regular_tasks}
        assert returned == schedulable

    def test_no_duplicate_tasks_in_preferences(self, profiler):
        rng = make_rng(1)
        jobs = [TaskAutomationApplication().sample_job(f"j{i}", 0.0, rng) for i in range(4)]
        scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(epsilon=0.5))
        decision = scheduler.schedule(make_context(jobs))
        uids = [t.uid for t in decision.llm_tasks + decision.regular_tasks]
        assert len(uids) == len(set(uids))

    def test_shorter_job_preferred_under_pure_exploitation(self, profiler):
        """With epsilon=0 LLMSched degenerates to SRTF on posterior estimates."""
        rng = make_rng(2)
        short_job = WebSearchApplication().sample_job("short", 0.0, rng)
        long_job = SequenceSortingApplication().sample_job("long", 0.0, rng)
        scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(epsilon=0.0))
        decision = scheduler.schedule(make_context([long_job, short_job]))
        assert decision.llm_tasks[0].job_id == "short"

    def test_empty_context_returns_empty_decision(self, profiler):
        scheduler = LLMSchedScheduler(profiler)
        assert scheduler.schedule(make_context([])).total_tasks == 0

    def test_unprofiled_application_gets_fallback_estimate(self, profiler):
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType

        job = Job("x", "unknown_app", 0.0)
        job.add_stage(Stage(StageSpec("s", StageType.LLM), "x", [1.0]))
        job.finalize()
        scheduler = LLMSchedScheduler(profiler)
        estimate = scheduler.estimate_remaining(job, make_context([job]))
        assert estimate > 0
        decision = scheduler.schedule(make_context([job]))
        assert decision.total_tasks == 1

    def test_exploration_samples_fraction_of_tasks_first(self, profiler):
        """With epsilon=1 the first scheduled stage comes from the exploration
        list and only a sampled fraction of a multi-task stage is released
        ahead of the rest."""
        rng = make_rng(3)
        job = SequenceSortingApplication().sample_job("a", 0.0, rng)
        scheduler = LLMSchedScheduler(
            profiler, LLMSchedConfig(epsilon=1.0, sampling_ratio=0.34, seed=1)
        )
        decision = scheduler.schedule(make_context([job]))
        # All tasks still appear exactly once overall.
        schedulable = {t.uid for t in job.schedulable_tasks()}
        returned = [t.uid for t in decision.llm_tasks + decision.regular_tasks]
        assert set(returned) == schedulable
        assert len(returned) == len(set(returned))

    def test_ablation_flags_change_behaviour(self, profiler):
        rng = make_rng(4)
        jobs = [SequenceSortingApplication().sample_job(f"j{i}", 0.0, rng) for i in range(3)]
        full = LLMSchedScheduler(profiler, LLMSchedConfig(seed=0))
        no_unc = LLMSchedScheduler(profiler, LLMSchedConfig(use_uncertainty=False, seed=0))
        no_bn = LLMSchedScheduler(profiler, LLMSchedConfig(use_bn=False, seed=0))
        for scheduler in (full, no_unc, no_bn):
            decision = scheduler.schedule(make_context(jobs))
            assert decision.total_tasks > 0
        # Without BN the estimates equal the historical application mean.
        job = jobs[0]
        mean_total = profiler.profile_for("sequence_sorting").mean_total_duration
        assert no_bn.estimate_remaining(job, make_context(jobs)) == pytest.approx(
            mean_total, rel=1e-6
        )


class TestEndToEnd:
    def test_runs_mixed_workload_to_completion(self, profiler):
        apps = default_applications()
        full_profiler = BayesianProfiler().fit(apps.values(), n_profile_jobs=60, seed=5)
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=20, arrival_rate=1.0, seed=9)
        jobs = generate_workload(spec, applications=apps)
        scheduler = LLMSchedScheduler(full_profiler, LLMSchedConfig(seed=0))
        cluster = Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=3, max_batch_size=8))
        metrics = SimulationEngine(jobs, scheduler, cluster=cluster, workload_name="mixed").run()
        assert len(metrics.job_completion_times) == len(jobs)
        assert metrics.average_jct > 0

    def test_registry_constructs_llmsched(self, profiler):
        scheduler = create_scheduler("llmsched", profiler=profiler)
        assert isinstance(scheduler, LLMSchedScheduler)
        assert scheduler.name == "llmsched"
