"""Unit + integration tests for the SLO-aware serving scheduler."""

import math

import pytest

from repro.api.dispatch import _make_scheduler, _serving_targets
from repro.api.spec import ScenarioSpec, SpecError
from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.schedulers.base import SchedulingContext
from repro.schedulers.registry import (
    available_schedulers,
    create_scheduler,
    scheduler_requirements,
)
from repro.schedulers.slo import _NO_DEADLINE, SloServingScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload
from repro.workloads.serving import DEFAULT_SLO_TARGETS, attach_token_model

TARGETS = {
    "interactive": {"ttft": 8.0, "tpot": 0.08},
    "batch": {"ttft": 60.0, "tpot": 0.5},
}


def make_llm_job(job_id, arrival=0.0, work=2.0, tier="interactive"):
    job = Job(job_id, "app", arrival)
    job.add_stage(Stage(StageSpec("llm", StageType.LLM), job_id, [work]))
    job.finalize()
    job.priority = tier
    return job


def token_task(job, prompt=100, output=101, prefill=0.5):
    task = job.stages["llm"].tasks[0]
    task.set_token_model(prompt_tokens=prompt, output_tokens=output, prefill_work=prefill)
    return task


class TestRegistry:
    def test_default_lineup_unchanged(self):
        assert available_schedulers() == [
            "fcfs",
            "sjf",
            "fair",
            "argus",
            "decima",
            "carbyne",
            "srtf",
            "llmsched",
        ]

    def test_serving_flag_exposes_slo_scheduler(self):
        names = available_schedulers(every=True)
        assert "slo_serving" in names

    def test_full_lineup_appends_the_extensions_in_order(self):
        assert available_schedulers(every=True) == available_schedulers() + [
            "srtf_preempt",
            "slo_serving",
            "llmsched_wo_bn",
            "llmsched_wo_uncertainty",
            "llmsched_wo_calibration",
        ]

    def test_unknown_name_lists_the_full_lineup(self):
        with pytest.raises(ValueError) as error:
            scheduler_requirements("no_such_scheduler")
        assert str(available_schedulers(every=True)) in str(error.value)
        for name in available_schedulers(every=True):
            scheduler_requirements(name)

    def test_create_and_requirements(self):
        scheduler = create_scheduler("slo_serving", slo_targets=TARGETS)
        assert isinstance(scheduler, SloServingScheduler)
        assert scheduler.preemptive
        assert scheduler_requirements("slo_serving") == frozenset()


class TestConstructorValidation:
    def test_rejects_negative_slope(self):
        with pytest.raises(ValueError, match="latency_slope"):
            SloServingScheduler(latency_slope=-0.1)

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError, match="slack_margin"):
            SloServingScheduler(slack_margin=-1.0)

    def test_rejects_zero_preemption_budget(self):
        with pytest.raises(ValueError, match="max_preemptions"):
            SloServingScheduler(max_preemptions_per_event=0)

    def test_defaults_to_default_targets(self):
        scheduler = SloServingScheduler()
        assert scheduler._targets == DEFAULT_SLO_TARGETS


#: A closed chat workload small enough to validate and run in a test.
CHAT_DOC = {
    "scheduler": {"name": "slo_serving"},
    "workload": {"mode": "closed", "num_jobs": 5, "token_mix": "chat"},
}


class TestTargetsFromTheSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_targets": {"default": {"ttft": "soon"}}},
            {"slo_targets": {"interactive": {"ttft": 1.0, "tpot": 0.01}}},
            {"latency_slope": 0.2},
        ],
        ids=["bad-targets", "targets", "slope"],
    )
    def test_target_and_slope_kwargs_are_rejected(self, kwargs):
        # A string target used to validate and then stop the run; a good one
        # set targets that goodput was not metered against.
        doc = {**CHAT_DOC, "scheduler": {"name": "slo_serving", "kwargs": kwargs}}
        with pytest.raises(SpecError, match=r"`slo` section.*`settings\.latency_slope`"):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("slo", [None, {"tiers": {"interactive": {"ttft": 2.0}}}])
    def test_the_scheduler_chases_the_metered_targets(self, slo):
        doc = {**CHAT_DOC, "settings": {"latency_slope": 0.1}}
        if slo is not None:
            doc["slo"] = slo
        spec = ScenarioSpec.from_dict(doc)
        scheduler = _make_scheduler(spec, None, None)
        assert scheduler._targets == _serving_targets(spec)
        assert scheduler._slope == 0.1
        expected = spec.slo.targets() if slo is not None else DEFAULT_SLO_TARGETS
        assert scheduler._targets == expected


class TestDeadlinesAndCaps:
    def test_deadline_is_ready_plus_ttft(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS)
        job = make_llm_job("j0")
        task = token_task(job)
        context = SchedulingContext(time=3.0, jobs=[job])
        task.ready_time = 2.0
        assert scheduler._deadline(context, task) == pytest.approx(10.0)

    def test_deadline_without_token_model_sorts_last(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS)
        job = make_llm_job("j0")
        context = SchedulingContext(time=0.0, jobs=[job])
        task = job.stages["llm"].tasks[0]
        assert scheduler._deadline(context, task) == _NO_DEADLINE

    def test_batch_cap_formula(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS, latency_slope=0.06)
        job = make_llm_job("j0", work=2.0)
        # decode_work = 1.5 over 100 decode steps -> 0.015 s/token vs 0.08:
        # cap = 1 + (0.08/0.015 - 1)/0.06
        task = token_task(job, prompt=100, output=101, prefill=0.5)
        context = SchedulingContext(time=0.0, jobs=[job])
        expected = 1.0 + (0.08 / task.per_token_decode_work() - 1.0) / 0.06
        assert scheduler._batch_cap(context, task) == pytest.approx(expected)

    def test_batch_cap_hopeless_request_is_unconstrained(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS)
        job = make_llm_job("j0", work=20.0)
        # 19.5 decode work over 100 steps -> 0.195 s/token > 0.08 target:
        # nothing can save it, so it must not cap the batch for others.
        task = token_task(job, prompt=100, output=101, prefill=0.5)
        context = SchedulingContext(time=0.0, jobs=[job])
        assert scheduler._batch_cap(context, task) == math.inf

    def test_doomed_only_before_first_token(self):
        job = make_llm_job("j0")
        task = token_task(job, prefill=0.5)
        # Deadline 1.0, now 0.8: 0.5s of prefill cannot land by 1.0.
        assert SloServingScheduler._is_doomed(task, 1.0, 0.8)
        # Same instant, but the first token already streamed: not doomed.
        task.first_token_time = 0.7
        assert not SloServingScheduler._is_doomed(task, 1.0, 0.8)

    def test_feasible_when_prefill_fits(self):
        job = make_llm_job("j0")
        task = token_task(job, prefill=0.5)
        assert not SloServingScheduler._is_doomed(task, 1.0, 0.4)


class TestEdfOrdering:
    def test_tighter_deadline_first_doomed_last(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS)
        tight = make_llm_job("tight", arrival=0.0, tier="interactive")
        loose = make_llm_job("loose", arrival=0.0, tier="batch")
        doomed = make_llm_job("doomed", arrival=0.0, tier="interactive")
        for job in (tight, loose, doomed):
            token_task(job)
        now = 20.0
        tight.stages["llm"].tasks[0].ready_time = now - 1.0  # deadline now+7
        loose.stages["llm"].tasks[0].ready_time = now - 1.0  # deadline now+59
        doomed.stages["llm"].tasks[0].ready_time = 0.0  # deadline 8 < now
        context = SchedulingContext(
            time=now, jobs=[doomed, loose, tight], free_llm_slots=8,
            llm_batch_sizes=[0, 0],
        )
        decision = scheduler.schedule(context)
        assert [t.job_id for t in decision.llm_tasks] == ["tight", "loose", "doomed"]


class TestEndToEnd:
    def run_once(self, num_jobs=12, mix="chat"):
        jobs = generate_workload(
            WorkloadSpec(
                workload_type=WorkloadType.MIXED,
                num_jobs=num_jobs,
                arrival_rate=1.2,
                seed=7,
            )
        )
        attach_token_model(jobs, mix, seed=3)
        engine = SimulationEngine(
            jobs,
            SloServingScheduler(slo_targets=TARGETS),
            cluster=Cluster(
                ClusterConfig(
                    num_regular_executors=3, num_llm_executors=2, max_batch_size=4
                )
            ),
        )
        engine.metrics.slo_targets = {t: dict(v) for t, v in TARGETS.items()}
        return engine.run()

    def test_work_conserving_all_jobs_finish(self):
        metrics = self.run_once()
        assert len(metrics.job_completion_times) == 12
        assert all(jct > 0 for jct in metrics.job_completion_times.values())
        assert metrics.has_serving_samples

    def test_deterministic_across_runs(self):
        first = self.run_once()
        second = self.run_once()
        assert first.job_completion_times == second.job_completion_times
        assert first.makespan == second.makespan
        assert first.serving_summary() == second.serving_summary()

    def test_serving_block_in_metrics_payload(self):
        payload = self.run_once().to_dict()
        assert payload["serving"]["version"] == 1
        assert payload["serving"]["num_requests"] > 0
