"""Tests for the Bayesian-network profiler."""

import numpy as np
import pytest

from repro.core import profiler as profiler_module
from repro.core.calibration import BatchingAwareCalibrator
from repro.core.profiler import (
    MAX_CORRELATED_TARGETS,
    MAX_INTERVALS,
    STRUCTURE_CONFIG,
    BayesianProfiler,
)
from repro.simulator.latency import DecodingLatencyProfile
from repro.utils.rng import make_rng
from repro.workloads import (
    CodeGenerationApplication,
    SequenceSortingApplication,
    TaskAutomationApplication,
)
from repro.workloads.mixtures import APPLICATION_NAMES, default_applications
from tests.test_ready_index import partial_jobs


#: The applications ``fitted_profiler`` profiles.
FITTED = ("sequence_sorting", "code_generation", "task_automation")


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
        profiled = {name for name in APPLICATION_NAMES if fitted_profiler.has_profile(name)}
        assert profiled == set(FITTED)
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
        for app_name in FITTED:
            assert fitted_profiler.profile_for(app_name).mean_total_duration > 0

    def test_invalid_fit_parameters(self):
        with pytest.raises(ValueError):
            BayesianProfiler().fit([SequenceSortingApplication()], n_profile_jobs=1)

    def test_learned_structures_respect_the_parent_limit(self, fitted_profiler):
        """Single-parent structures keep the forward-pass posterior exact."""
        assert STRUCTURE_CONFIG.max_parents == 1
        for name in FITTED:
            network = fitted_profiler.profile_for(name).network
            assert all(len(network.parents(v)) <= 1 for v in network.nodes), name
        assert any(
            fitted_profiler.profile_for(name).network.edges
            for name in FITTED
        )

    def test_each_variable_has_at_most_max_intervals_duration_states(self, fitted_profiler):
        cardinalities = []
        for name in FITTED:
            for variable, spec in fitted_profiler.profile_for(name).specs.items():
                # The "not executed" state comes on top of the duration intervals.
                assert spec.cardinality - spec.has_zero_state <= MAX_INTERVALS, variable
                cardinalities.append(spec.cardinality - spec.has_zero_state)
        assert max(cardinalities) == MAX_INTERVALS


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
        """A correlated stage and a planner reduce uncertainty; a stage the
        profile does not know cannot."""
        sorting = SequenceSortingApplication().sample_job("j0", 0.0, make_rng(9))
        automation = TaskAutomationApplication().sample_job("j1", 0.0, make_rng(9))
        assert fitted_profiler.uncertainty_reduction(sorting, "ss_split") > 0
        assert fitted_profiler.uncertainty_reduction(automation, "ta_plan") > 0
        assert fitted_profiler.uncertainty_reduction(sorting, "not_a_stage") == 0.0

    def test_reduction_scores_at_most_max_correlated_targets(self, fitted_profiler, monkeypatch):
        """The largest-range targets bound the inference cost of one R(X)."""
        scored = []
        score = profiler_module.conditional_mutual_information

        def recording(network, targets, source, evidence):
            scored.append(len(targets))
            return score(network, targets, source, evidence)

        monkeypatch.setattr(profiler_module, "conditional_mutual_information", recording)
        profiler = fitted_profiler.with_empty_caches()
        job = CodeGenerationApplication().sample_job("j0", 0.0, make_rng(10))
        keys = {stage.profile_key for stage in job.stages.values()}
        widest = max(len(profiler.correlated_variables("code_generation", k)) for k in keys)
        assert widest > MAX_CORRELATED_TARGETS
        for key in keys:
            profiler.uncertainty_reduction(job, key)
        assert max(scored) == MAX_CORRELATED_TARGETS

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


class TestRefit:
    def test_a_refit_profiler_answers_like_a_fresh_one(self):
        """A refit used to answer from the replaced networks' cached marginals."""
        applications = default_applications().values()
        jobs = partial_jobs(11, 12, 20)

        def answers(profiler):
            result = [profiler.posterior_marginals("code_generation", {})]
            for job in jobs:
                evidence = profiler.evidence_for(job)
                result.append(profiler.posterior_marginals(job.application, evidence))
                result.append(profiler.remaining_estimate(job))
                keys = sorted({stage.profile_key for stage in job.stages.values()})
                result.append([profiler.uncertainty_reduction(job, key) for key in keys])
            return result

        def same(left, right):
            if isinstance(left, dict):
                return list(left) == list(right) and all(
                    np.array_equal(left[k], right[k]) for k in left
                )
            return left == right

        refit = BayesianProfiler().fit(applications, n_profile_jobs=20, seed=1)
        stale = answers(refit)
        refit.fit(applications, n_profile_jobs=300, seed=9)
        fresh = answers(BayesianProfiler().fit(applications, n_profile_jobs=300, seed=9))
        assert not same(stale[0], fresh[0])
        for got, expected in zip(answers(refit), fresh, strict=True):
            assert same(got, expected)
