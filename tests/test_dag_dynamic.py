"""Tests for dynamic-stage candidate sets and entropy."""

import pytest

from repro.dag.application import JobBuildError
from repro.dag.dynamic import StageCandidate, dynamic_stage_entropy
from repro.utils.rng import make_rng
from repro.workloads import LlmCompilerApplication, TaskAutomationApplication


class TestStageCandidate:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            StageCandidate(name="tool", selection_probability=1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            StageCandidate(name="tool", mean_duration=-1.0)


class TestDynamicStageEntropy:
    def test_deterministic_candidates_zero_node_entropy(self):
        candidates = [
            StageCandidate(name="a", selection_probability=1.0),
            StageCandidate(name="b", selection_probability=0.0),
        ]
        assert dynamic_stage_entropy(candidates, edge_probability=0.0) == pytest.approx(0.0)

    def test_maximal_uncertainty(self):
        candidates = [StageCandidate(name=f"c{i}", selection_probability=0.5) for i in range(3)]
        # 3 nodes at 1 bit each + 3 possible edges at 1 bit each.
        assert dynamic_stage_entropy(candidates, edge_probability=0.5) == pytest.approx(6.0)

    def test_entropy_increases_with_candidates(self):
        few = [StageCandidate(name="a", selection_probability=0.5)]
        many = [StageCandidate(name=f"c{i}", selection_probability=0.5) for i in range(4)]
        assert dynamic_stage_entropy(many, 0.5) > dynamic_stage_entropy(few, 0.5)

    def test_invalid_edge_probability(self):
        with pytest.raises(ValueError):
            dynamic_stage_entropy([], edge_probability=2.0)


PLANNING = {"task_automation": TaskAutomationApplication, "llm_compiler": LlmCompilerApplication}


@pytest.fixture(params=sorted(PLANNING))
def planning_app(request):
    return PLANNING[request.param]()


def generated_stages(job):
    """The planner's realised plan: the stages hidden until it finishes."""
    return [stage for stage in job.stages.values() if not stage.visible]


def sampled_jobs(app, count=25):
    rng = make_rng(11)
    return [app.sample_job(f"j{i}", 0.0, rng) for i in range(count)]


class TestRealisedPlan:
    """Each planning job realises its dynamic stage: a non-empty selection of
    distinct candidates, each with a duration, revealed by the planner and
    awaited by the dynamic stage."""

    def test_selection_is_distinct_candidates(self, planning_app):
        names = {c.name for c in planning_app.dynamic_candidates()[planning_app.DYNAMIC_KEY]}
        for job in sampled_jobs(planning_app):
            selected = [stage.spec.name for stage in generated_stages(job)]
            assert selected
            assert len(set(selected)) == len(selected)
            assert set(selected) <= names

    def test_every_selected_stage_has_a_duration(self, planning_app):
        for job in sampled_jobs(planning_app):
            for stage in generated_stages(job):
                assert stage.will_execute and stage.tasks
                assert stage.duration > 0

    def test_planner_reveals_and_dynamic_stage_awaits_each_selected_stage(self, planning_app):
        for job in sampled_jobs(planning_app):
            for stage in generated_stages(job):
                assert planning_app.PLAN_KEY in job.parents(stage.stage_id)
                assert planning_app.DYNAMIC_KEY in job.children(stage.stage_id)

    def test_dependency_on_unselected_rejected(self, planning_app):
        draw = planning_app.sample_draw(make_rng(3))
        hidden = [s.spec for s in draw.stages if not s.visible]
        candidates = planning_app.dynamic_candidates()[planning_app.DYNAMIC_KEY]
        unselected = next(c.name for c in candidates if c.name not in {s.name for s in hidden})
        prefix = hidden[0].stage_id[: -len(hidden[0].name)]
        draw.edges.append((hidden[0].stage_id, prefix + unselected))
        with pytest.raises(JobBuildError, match=f"unknown stage '{prefix}{unselected}'"):
            planning_app.build_job("j0", 0.0, draw)
