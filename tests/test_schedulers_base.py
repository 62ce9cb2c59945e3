"""Tests for the scheduler interface, priors, and decision validation."""

import pytest

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.dag.task import Task, TaskType
from repro.schedulers.base import (
    SchedulingContext,
    SchedulingDecision,
    flatten_stage_tasks,
    interleave_tasks,
)
from repro.schedulers.priors import ApplicationPriors
from repro.workloads import SequenceSortingApplication, WebSearchApplication


def make_job(job_id="j0", arrival=0.0, llm_work=2.0, reg_work=1.0):
    job = Job(job_id, "app", arrival)
    job.add_stage(Stage(StageSpec("llm", StageType.LLM), job_id, [llm_work]))
    job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [reg_work]))
    job.add_dependency("llm", "reg")
    job.finalize()
    return job


class TestSchedulingDecision:
    def test_type_validation(self):
        llm = Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=1.0)
        reg = Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=1.0)
        with pytest.raises(ValueError):
            SchedulingDecision(regular_tasks=[llm])
        with pytest.raises(ValueError):
            SchedulingDecision(llm_tasks=[reg])

    def test_from_tasks_splits_by_type(self):
        llm = Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=1.0)
        reg = Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=1.0)
        decision = SchedulingDecision.from_tasks([llm, reg])
        assert decision.llm_tasks == [llm]
        assert decision.regular_tasks == [reg]
        assert decision.total_tasks == 2


class TestSchedulingContext:
    def test_schedulable_views(self):
        job = make_job()
        context = SchedulingContext(time=0.0, jobs=[job])
        stages = context.schedulable_stages()
        assert [s.stage_id for s in stages] == ["llm"]
        tasks = context.schedulable_tasks()
        assert len(tasks) == 1 and tasks[0].is_llm

    def test_job_of(self):
        job = make_job()
        context = SchedulingContext(time=0.0, jobs=[job])
        task = context.schedulable_tasks()[0]
        assert context.job_of(task) is job
        stray = Task(job_id="other", stage_id="s", task_type=TaskType.LLM, work=1.0)
        with pytest.raises(KeyError):
            context.job_of(stray)

    def test_average_llm_batch_size(self):
        context = SchedulingContext(time=0.0, jobs=[], llm_batch_sizes=[2, 4])
        assert context.average_llm_batch_size == pytest.approx(3.0)
        empty = SchedulingContext(time=0.0, jobs=[])
        assert empty.average_llm_batch_size == 1.0

    def test_average_llm_batch_size_excludes_idle_executors(self):
        # Idle executors (batch 0) used to deflate the average — with one
        # busy executor at batch 4 and three idle ones the old code said
        # max(1.0, 4/4) = 1.0; a request landing on the busy executor
        # actually shares a batch of 4.
        context = SchedulingContext(time=0.0, jobs=[], llm_batch_sizes=[4, 0, 0, 0])
        assert context.average_llm_batch_size == pytest.approx(4.0)
        mixed = SchedulingContext(time=0.0, jobs=[], llm_batch_sizes=[0, 2, 0, 4])
        assert mixed.average_llm_batch_size == pytest.approx(3.0)
        all_idle = SchedulingContext(time=0.0, jobs=[], llm_batch_sizes=[0, 0])
        assert all_idle.average_llm_batch_size == 1.0

    def test_flatten_stage_tasks_keeps_order(self):
        job_a = make_job("a")
        job_b = make_job("b")
        stages = job_a.schedulable_stages() + job_b.schedulable_stages()
        tasks = flatten_stage_tasks(stages)
        assert [t.job_id for t in tasks] == ["a", "b"]

    def test_interleave_tasks_round_robins_across_stages(self):
        job_a = Job("a", "app", 0.0)
        job_a.add_stage(Stage(StageSpec("wide", StageType.REGULAR), "a", [1.0, 1.0, 1.0]))
        job_a.finalize()
        job_b = Job("b", "app", 0.0)
        job_b.add_stage(Stage(StageSpec("narrow", StageType.REGULAR), "b", [1.0]))
        job_b.finalize()
        stages = job_a.schedulable_stages() + job_b.schedulable_stages()
        # flatten: all of a's tasks first; interleave: one per stage per round.
        assert [t.job_id for t in flatten_stage_tasks(stages)] == ["a", "a", "a", "b"]
        assert [t.job_id for t in interleave_tasks(stages)] == ["a", "b", "a", "a"]
        assert interleave_tasks([]) == []


class TestApplicationPriors:
    def test_from_applications(self):
        apps = [SequenceSortingApplication(), WebSearchApplication()]
        priors = ApplicationPriors.from_applications(apps, n_samples=10, seed=0)
        assert priors.knows("sequence_sorting")
        assert priors.mean_duration("sequence_sorting") > priors.mean_duration("web_search")

    def test_estimate_total_falls_back_for_unknown_app(self):
        priors = ApplicationPriors({"known": 10.0})
        job = make_job()
        assert priors.estimate_total(job) == pytest.approx(10.0)

    def test_estimate_remaining_decreases_with_progress(self):
        priors = ApplicationPriors({"app": 10.0})
        job = make_job()
        before = priors.estimate_remaining(job)
        # Finish the LLM stage (2 seconds of observed work).
        stage = job.stage("llm")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(2.0)
        job.notify_stage_finished("llm", 2.0)
        after = priors.estimate_remaining(job)
        assert after < before
        assert after == pytest.approx(8.0)

    def test_remaining_never_negative(self):
        priors = ApplicationPriors({"app": 0.5})
        job = make_job()
        stage = job.stage("llm")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(2.0)
        job.notify_stage_finished("llm", 2.0)
        assert priors.estimate_remaining(job) > 0

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            ApplicationPriors({"app": 0.0})

    def test_unknown_application_lookup_raises(self):
        with pytest.raises(KeyError):
            ApplicationPriors({"app": 1.0}).mean_duration("other")
