"""Tests for the Bayesian-network profiler."""

import numpy as np
import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.profiler import BayesianProfiler
from repro.simulator.latency import DecodingLatencyProfile
from repro.utils.rng import make_rng
from repro.workloads import (
    CodeGenerationApplication,
    SequenceSortingApplication,
    TaskAutomationApplication,
)


@pytest.fixture(scope="module")
def fitted_profiler():
    """One profiler fitted on three representative applications."""
    profiler = BayesianProfiler()
    profiler.fit(
        [
            SequenceSortingApplication(),
            CodeGenerationApplication(),
            TaskAutomationApplication(),
        ],
        n_profile_jobs=120,
        seed=1,
    )
    return profiler


class TestFitting:
    def test_profiles_registered(self, fitted_profiler):
        assert set(fitted_profiler.applications) == {
            "sequence_sorting",
            "code_generation",
            "task_automation",
        }
        assert fitted_profiler.has_profile("sequence_sorting")
        assert not fitted_profiler.has_profile("unknown_app")

    def test_unknown_profile_lookup_raises(self, fitted_profiler):
        with pytest.raises(KeyError):
            fitted_profiler.profile_for("unknown_app")

    def test_profile_contains_all_variables(self, fitted_profiler):
        app = CodeGenerationApplication()
        profile = fitted_profiler.profile_for("code_generation")
        assert profile.variables == app.profile_variables()
        assert set(profile.specs) == set(app.profile_variables())

    def test_network_learned_correlation_edges(self, fitted_profiler):
        """The strong correlations between sorting stages must become edges."""
        profile = fitted_profiler.profile_for("sequence_sorting")
        assert len(profile.network.edges) > 0

    def test_dynamic_info_for_planning_application(self, fitted_profiler):
        profile = fitted_profiler.profile_for("task_automation")
        assert "ta_dynamic" in profile.dynamic_info
        preceding, entropy, duration_range = profile.dynamic_info["ta_dynamic"]
        assert preceding == "ta_plan"
        assert entropy > 0
        assert duration_range > 0

    def test_mean_total_duration_positive(self, fitted_profiler):
        for app_name in fitted_profiler.applications:
            assert fitted_profiler.profile_for(app_name).mean_total_duration > 0

    def test_invalid_fit_parameters(self):
        with pytest.raises(ValueError):
            BayesianProfiler().fit([SequenceSortingApplication()], n_profile_jobs=1)
        with pytest.raises(ValueError):
            BayesianProfiler(max_intervals=0)
        with pytest.raises(ValueError):
            BayesianProfiler(max_correlated_targets=0)


class TestEvidence:
    def test_no_evidence_for_fresh_job(self, fitted_profiler):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(0))
        assert fitted_profiler.evidence_for(job) == {}

    def test_evidence_after_stage_completion(self, fitted_profiler):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(0))
        stage = job.stage("ss_split")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(stage.tasks[0].work)
        job.notify_stage_finished("ss_split", stage.tasks[0].work)
        evidence = fitted_profiler.evidence_for(job)
        assert "ss_split" in evidence
        profile = fitted_profiler.profile_for("sequence_sorting")
        assert 0 <= evidence["ss_split"] < profile.specs["ss_split"].cardinality

    def test_unselected_tools_pinned_to_zero_after_plan(self, fitted_profiler):
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(3))
        plan = job.stage("ta_plan")
        plan.mark_running()
        plan.tasks[0].mark_running(0.0, "e")
        plan.tasks[0].mark_finished(plan.tasks[0].work)
        job.notify_stage_finished("ta_plan", plan.tasks[0].work)
        evidence = fitted_profiler.evidence_for(job)
        assert "ta_plan" in evidence
        selected_keys = {s.profile_key for s in job.stages.values()}
        unselected = [
            v for v in app.profile_variables()
            if v.startswith("ta_tool_") and v not in selected_keys
        ]
        for variable in unselected:
            assert variable in evidence  # pinned to the zero state


class TestStageNeverSeenRunning:
    def test_posterior_for_a_job_that_runs_it(self):
        """Regression: a stage that never executed in the profiling samples
        gets a one-state spec, and a job that does run it used to crash
        ``posterior_marginals`` with an IndexError."""
        app = CodeGenerationApplication()
        profiler = BayesianProfiler().fit([app], n_profile_jobs=10, seed=7)
        specs = profiler.profile_for(app.name).specs
        unseen = {v for v, spec in specs.items() if spec.cardinality == 1}
        assert unseen
        rng = make_rng(0)
        job = next(
            job
            for job in (app.sample_job(f"j{i}", 0.0, rng) for i in range(500))
            if any(s.profile_key in unseen and s.will_execute for s in job.stages.values())
        )
        clock = 0.0
        while not any(job.stage(s).is_complete for s in job.stages if s in unseen):
            stage = job.schedulable_stages()[0]
            stage.mark_running()
            for task in stage.tasks:
                task.mark_running(clock, "e")
                clock += task.work
                task.mark_finished(clock)
            job.notify_stage_finished(stage.stage_id, clock)

        evidence = profiler.evidence_for(job)
        observed = unseen & set(evidence)
        assert observed
        assert all(evidence[v] == 0 for v in observed)
        marginals = profiler.posterior_marginals(app.name, evidence)
        assert all(marginals[v].tolist() == [1.0] for v in observed)
        assert profiler.estimate_remaining_duration(job) >= 0.0


class TestDurationEstimation:
    def test_estimate_close_to_true_remaining_on_average(self, fitted_profiler):
        """The posterior estimate should track the true remaining work."""
        app = SequenceSortingApplication()
        rng = make_rng(5)
        errors = []
        for i in range(30):
            job = app.sample_job(f"j{i}", 0.0, rng)
            estimate = fitted_profiler.estimate_remaining_duration(job)
            errors.append(abs(estimate - job.true_total_work) / job.true_total_work)
        assert float(np.median(errors)) < 0.6

    def test_evidence_improves_estimate(self, fitted_profiler):
        """Observing the split stage should move the estimate towards truth."""
        app = SequenceSortingApplication()
        rng = make_rng(11)
        improved = 0
        total = 0
        for i in range(30):
            job = app.sample_job(f"j{i}", 0.0, rng)
            true_total = job.true_total_work
            before = fitted_profiler.estimate_remaining_duration(job)
            stage = job.stage("ss_split")
            stage.mark_running()
            stage.tasks[0].mark_running(0.0, "e")
            stage.tasks[0].mark_finished(stage.tasks[0].work)
            job.notify_stage_finished("ss_split", stage.tasks[0].work)
            after = fitted_profiler.estimate_remaining_duration(job) + stage.tasks[0].work
            total += 1
            if abs(after - true_total) <= abs(before - true_total) + 1e-6:
                improved += 1
        assert improved / total > 0.55

    def test_without_posterior_uses_historical_means(self, fitted_profiler):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(2))
        profile = fitted_profiler.profile_for("sequence_sorting")
        estimate = fitted_profiler.estimate_remaining_duration(job, use_posterior=False)
        assert estimate == pytest.approx(profile.mean_total_duration, rel=1e-6)

    def test_calibration_inflates_llm_share(self, fitted_profiler):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(2))
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.2))
        base = fitted_profiler.estimate_remaining_duration(job, target_batch_size=1, calibrator=calibrator)
        loaded = fitted_profiler.estimate_remaining_duration(job, target_batch_size=8, calibrator=calibrator)
        assert loaded > base

    def test_remaining_interval_brackets_estimate(self, fitted_profiler):
        app = CodeGenerationApplication()
        job = app.sample_job("j0", 0.0, make_rng(4))
        lower, upper = fitted_profiler.estimate_remaining_interval(job)
        estimate = fitted_profiler.estimate_remaining_duration(job)
        assert lower <= estimate <= upper


class TestUncertaintyReduction:
    def test_correlated_variables_nonempty_for_root_stage(self, fitted_profiler):
        correlated = fitted_profiler.correlated_variables("sequence_sorting", "ss_split")
        assert correlated  # the split stage drives the downstream LLM stages

    def test_uncertainty_reducing_flags(self, fitted_profiler):
        assert fitted_profiler.is_uncertainty_reducing("sequence_sorting", "ss_split")
        assert fitted_profiler.is_uncertainty_reducing("task_automation", "ta_plan")
        assert not fitted_profiler.is_uncertainty_reducing("unknown_app", "x")

    def test_planner_reduction_dominated_by_dynamic_bonus(self, fitted_profiler):
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(6))
        reduction = fitted_profiler.uncertainty_reduction(job, "ta_plan")
        profile = fitted_profiler.profile_for("task_automation")
        _, entropy, duration_range = profile.dynamic_info["ta_dynamic"]
        assert reduction >= entropy * duration_range

    def test_reduction_non_negative_and_zero_for_observed(self, fitted_profiler):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(7))
        reduction = fitted_profiler.uncertainty_reduction(job, "ss_split")
        assert reduction >= 0.0
        # Complete the stage; its reduction becomes zero (nothing left to learn).
        stage = job.stage("ss_split")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(1.0)
        job.notify_stage_finished("ss_split", 1.0)
        assert fitted_profiler.uncertainty_reduction(job, "ss_split") == 0.0

    def test_uncertainty_reducing_stage_scores_higher_than_isolated(self, fitted_profiler):
        """The split stage (correlated) must beat a score stage (uncorrelated)."""
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(8))
        split_reduction = fitted_profiler.uncertainty_reduction(job, "ss_split")
        score_reduction = fitted_profiler.uncertainty_reduction(job, "ss_score_final")
        assert split_reduction > score_reduction
