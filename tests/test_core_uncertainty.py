"""Tests for the entropy-based uncertainty quantification façade."""

import math

import pytest

from repro.bayes.information import binary_entropy, entropy_of_distribution
from repro.core.profiler import BayesianProfiler
from repro.core.uncertainty import UncertaintyQuantifier
from repro.dag.stage import StageType
from repro.utils.rng import make_rng
from repro.workloads import SequenceSortingApplication, TaskAutomationApplication


@pytest.fixture(scope="module")
def profiler():
    return BayesianProfiler().fit(
        [SequenceSortingApplication(), TaskAutomationApplication()],
        n_profile_jobs=80,
        seed=2,
    )


@pytest.fixture(scope="module")
def quantifier(profiler):
    return UncertaintyQuantifier(profiler)


def prior_marginals(profiler, job):
    return profiler.posterior_marginals(job.application, profiler.evidence_for(job))


class TestStageEntropyFormulas:
    """Sec. IV-C: a stage's uncertainty is the entropy of its duration belief."""

    def test_regular_stage_entropy_covers_its_execution_indicator(self, profiler, quantifier):
        """A tool may not run at all, so its entropy is at least the Bernoulli
        entropy of whether it executes (state 0 is "not executed")."""
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(4))
        marginals = prior_marginals(profiler, job)
        specs = profiler.profile_for(app.name).specs
        tools = [s for s in job.stages.values() if s.stage_type is StageType.REGULAR]
        assert tools
        for stage in tools:
            assert specs[stage.profile_key].has_zero_state
            skipped = marginals[stage.profile_key][0]
            assert quantifier.stage_entropy(job, stage) >= binary_entropy(skipped) > 0

    def test_llm_stage_entropy_is_over_its_duration_intervals(self, profiler, quantifier):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(5))
        marginals = prior_marginals(profiler, job)
        specs = profiler.profile_for(app.name).specs
        llm = [s for s in job.stages.values() if s.is_llm]
        assert llm
        for stage in llm:
            entropy = quantifier.stage_entropy(job, stage)
            assert entropy == pytest.approx(entropy_of_distribution(marginals[stage.profile_key]))
            assert entropy <= math.log2(specs[stage.profile_key].cardinality) + 1e-12
        assert any(quantifier.stage_entropy(job, stage) > 0 for stage in llm)


class TestQuantifier:
    def test_stage_entropy_positive_before_execution(self, quantifier):
        job = SequenceSortingApplication().sample_job("j0", 0.0, make_rng(0))
        entropy = quantifier.stage_entropy(job, job.stage("ss_split"))
        assert entropy > 0

    def test_stage_entropy_zero_after_completion(self, quantifier):
        job = SequenceSortingApplication().sample_job("j0", 0.0, make_rng(1))
        stage = job.stage("ss_split")
        stage.mark_running()
        stage.tasks[0].mark_running(0.0, "e")
        stage.tasks[0].mark_finished(1.0)
        job.notify_stage_finished("ss_split", 1.0)
        assert quantifier.stage_entropy(job, stage) == 0.0

    def test_dynamic_stage_entropy_from_candidates(self, quantifier):
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(2))
        entropy = quantifier.stage_entropy(job, job.stage(app.DYNAMIC_KEY))
        assert entropy > 1.0  # several uncertain candidates plus edges

    def test_uncertainty_reduction_of_the_planner(self, quantifier):
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(3))
        plan_stage = job.stage(app.PLAN_KEY)
        assert quantifier.uncertainty_reduction(job, plan_stage) > 0
