"""Tests for the baseline scheduling policies."""

import pytest

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.schedulers.argus import ArgusScheduler
from repro.schedulers.base import SchedulingContext
from repro.schedulers.carbyne import CarbyneScheduler
from repro.schedulers.decima import DecimaPolicy, DecimaScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.schedulers.sjf import SjfScheduler
from repro.schedulers.srtf import SrtfScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload


def make_job(job_id, application, arrival, llm_work, num_llm_tasks=1, reg_work=0.5):
    job = Job(job_id, application, arrival)
    job.add_stage(
        Stage(StageSpec("llm", StageType.LLM), job_id, [llm_work] * num_llm_tasks)
    )
    job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [reg_work]))
    job.add_dependency("llm", "reg")
    job.finalize()
    return job


def context_for(jobs, time=0.0):
    return SchedulingContext(time=time, jobs=list(jobs), free_regular_slots=4, free_llm_slots=8)


PRIORS = ApplicationPriors({"short_app": 2.0, "long_app": 20.0})


class TestFcfs:
    def test_orders_by_arrival(self):
        late = make_job("late", "short_app", 5.0, 1.0)
        early = make_job("early", "long_app", 1.0, 1.0)
        decision = FcfsScheduler().schedule(context_for([late, early]))
        assert decision.llm_tasks[0].job_id == "early"

    def test_empty_context(self):
        decision = FcfsScheduler().schedule(context_for([]))
        assert decision.total_tasks == 0


class TestFair:
    def test_round_robins_across_jobs(self):
        job_a = make_job("a", "short_app", 0.0, 1.0, num_llm_tasks=3)
        job_b = make_job("b", "short_app", 1.0, 1.0, num_llm_tasks=3)
        decision = FairScheduler().schedule(context_for([job_a, job_b]))
        order = [t.job_id for t in decision.llm_tasks]
        assert order[:4] == ["a", "b", "a", "b"]


class TestSjf:
    def test_prefers_short_application(self):
        long_job = make_job("long", "long_app", 0.0, 10.0)
        short_job = make_job("short", "short_app", 1.0, 1.0)
        decision = SjfScheduler(PRIORS).schedule(context_for([long_job, short_job]))
        assert decision.llm_tasks[0].job_id == "short"

    def test_is_blind_to_actual_duration_within_application(self):
        """Two jobs of the same app rank by arrival even if true work differs."""
        slow = make_job("slow", "short_app", 0.0, 50.0)
        fast = make_job("fast", "short_app", 1.0, 0.1)
        decision = SjfScheduler(PRIORS).schedule(context_for([slow, fast]))
        assert decision.llm_tasks[0].job_id == "slow"


class TestSrtf:
    def test_progress_changes_priority(self):
        job_a = make_job("a", "long_app", 0.0, 10.0)
        job_b = make_job("b", "short_app", 0.0, 1.0)
        scheduler = SrtfScheduler(priors=PRIORS)
        first = scheduler.schedule(context_for([job_a, job_b]))
        assert first.llm_tasks[0].job_id == "b"
        # After job_a observes 19.5s of completed work its remaining estimate
        # (0.5s) drops below job_b's 2.0s estimate.
        stage = job_a.stage("llm")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(19.5)
        job_a.notify_stage_finished("llm", 19.5)
        second = scheduler.schedule(context_for([job_a, job_b], time=19.5))
        assert second.regular_tasks[0].job_id == "a"

    def test_requires_estimator_or_priors(self):
        with pytest.raises(ValueError):
            SrtfScheduler()

    def test_custom_estimator_used(self):
        job_a = make_job("a", "long_app", 0.0, 10.0)
        job_b = make_job("b", "short_app", 0.0, 1.0)
        scheduler = SrtfScheduler(remaining_estimator=lambda job, ctx: {"a": 1.0, "b": 5.0}[job.job_id])
        decision = scheduler.schedule(context_for([job_a, job_b]))
        assert decision.llm_tasks[0].job_id == "a"


class TestArgus:
    def test_prefers_deeper_stages(self):
        """A job whose schedulable stage is deeper in the DAG goes first."""
        shallow = make_job("shallow", "short_app", 0.0, 1.0)
        deep = make_job("deep", "short_app", 0.0, 1.0)
        # Advance `deep` so its regular (depth-1) stage is schedulable.
        stage = deep.stage("llm")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(1.0)
        deep.notify_stage_finished("llm", 1.0)
        decision = ArgusScheduler().schedule(context_for([shallow, deep], time=1.0))
        assert decision.regular_tasks[0].job_id == "deep"


class TestCarbyne:
    def test_primary_share_follows_remaining_time(self):
        long_job = make_job("long", "long_app", 0.0, 10.0)
        short_job = make_job("short", "short_app", 0.0, 1.0)
        decision = CarbyneScheduler(PRIORS).schedule(context_for([long_job, short_job]))
        assert decision.llm_tasks[0].job_id == "short"

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            CarbyneScheduler(PRIORS, primary_fraction=0.0)


class TestDecima:
    def test_schedules_single_stage_at_a_time(self):
        job_a = make_job("a", "short_app", 0.0, 1.0, num_llm_tasks=2)
        job_b = make_job("b", "long_app", 0.0, 5.0, num_llm_tasks=2)
        decision = DecimaScheduler(PRIORS).schedule(context_for([job_a, job_b]))
        scheduled_stages = {(t.job_id, t.stage_id) for t in decision.llm_tasks + decision.regular_tasks}
        assert len(scheduled_stages) == 1

    def test_empty_context(self):
        decision = DecimaScheduler(PRIORS).schedule(context_for([]))
        assert decision.total_tasks == 0

    def test_policy_weight_validation(self):
        with pytest.raises(ValueError):
            DecimaPolicy(weights=(1.0, 2.0))


class TestRegistry:
    def test_available_names(self):
        names = available_schedulers()
        for expected in ["fcfs", "sjf", "fair", "argus", "decima", "carbyne", "llmsched"]:
            assert expected in names

    def test_create_simple_schedulers(self):
        assert create_scheduler("fcfs").name == "fcfs"
        assert create_scheduler("fair").name == "fair"
        assert create_scheduler("sjf", priors=PRIORS).name == "sjf"
        assert create_scheduler("argus").name == "argus"

    def test_priors_required(self):
        with pytest.raises(ValueError):
            create_scheduler("sjf")

    def test_llmsched_without_profiler_names_the_fix(self):
        # Config kwargs do not stand in for the fitted profiler.
        with pytest.raises(ValueError, match="requires a fitted profiler"):
            create_scheduler("llmsched", epsilon=0.2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_scheduler("mystery")


@pytest.mark.parametrize("name", ["fcfs", "fair", "sjf", "srtf", "argus", "decima", "carbyne"])
class TestBaselinesEndToEnd:
    def test_runs_small_mixed_workload(self, name):
        """Every baseline must drive a small workload to completion."""
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=18, arrival_rate=1.2, seed=11)
        jobs = generate_workload(spec)
        priors = ApplicationPriors({app: 10.0 for app in {j.application for j in jobs}})
        scheduler = create_scheduler(name, priors=priors)
        cluster = Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=3, max_batch_size=8))
        metrics = SimulationEngine(jobs, scheduler, cluster=cluster, workload_name="mixed").run()
        assert len(metrics.job_completion_times) == len(jobs)
        assert metrics.average_jct > 0
