"""Tests for the six application generators.

Besides structural correctness these tests check that the synthetic
generators reproduce the characteristics reported in the paper's workload
analysis (Section III): job-duration ranges, chain-length ranges, generated
stage counts, and strong inter-stage duration correlations.
"""

import numpy as np
import pytest

from repro.dag.stage import StageType
from repro.utils.rng import make_rng
from repro.utils.stats import pearson_correlation
from repro.workloads import (
    CodeGenerationApplication,
    DocumentMergingApplication,
    LlmCompilerApplication,
    SequenceSortingApplication,
    TaskAutomationApplication,
    WebSearchApplication,
)

ALL_APPLICATIONS = [
    SequenceSortingApplication,
    DocumentMergingApplication,
    CodeGenerationApplication,
    WebSearchApplication,
    TaskAutomationApplication,
    LlmCompilerApplication,
]


@pytest.mark.parametrize("app_cls", ALL_APPLICATIONS)
class TestCommonApplicationContract:
    def test_sample_job_is_well_formed(self, app_cls):
        app = app_cls()
        job = app.sample_job("j0", 1.5, make_rng(0))
        assert job.application == app.name
        assert job.arrival_time == 1.5
        assert len(job.stages) >= 2
        assert not job.is_finished
        # At least one stage must be immediately schedulable.
        assert job.schedulable_stages()

    def test_profile_variables_unique_and_edges_consistent(self, app_cls):
        app = app_cls()
        variables = app.profile_variables()
        assert len(variables) == len(set(variables))
        for parent, child in app.profile_edges():
            assert parent in variables
            assert child in variables

    def test_stage_profile_keys_are_known_variables(self, app_cls):
        app = app_cls()
        variables = set(app.profile_variables())
        job = app.sample_job("j0", 0.0, make_rng(1))
        for stage in job.stages.values():
            if stage.is_dynamic:
                continue
            assert stage.profile_key in variables

    def test_llm_profile_keys_subset_of_variables(self, app_cls):
        app = app_cls()
        assert set(app.llm_profile_keys()) <= set(app.profile_variables())

    def test_estimate_mean_duration_positive(self, app_cls):
        app = app_cls()
        assert app.estimate_mean_duration(make_rng(2), n_samples=10) > 0


def complete_job_serially(job):
    """Complete every schedulable stage in topological order; return makespan."""
    time = job.arrival_time
    while not job.is_finished:
        stages = job.schedulable_stages()
        assert stages, f"job {job.job_id} deadlocked"
        for stage in stages:
            stage.mark_running()
            for task in stage.tasks:
                task.mark_running(time, "e")
                task.mark_finished(time + task.work)
            time = max(time, max(t.finish_time for t in stage.tasks))
            job.notify_stage_finished(stage.stage_id, time)
    return time


@pytest.mark.parametrize("app_cls", ALL_APPLICATIONS)
class TestJobsRunToCompletion:
    def test_serial_execution_terminates(self, app_cls):
        app = app_cls()
        rng = make_rng(7)
        for i in range(5):
            job = app.sample_job(f"j{i}", 0.0, rng)
            complete_job_serially(job)
            assert job.is_finished
            assert job.jct is not None and job.jct >= 0


class TestSequenceSortingCharacteristics:
    def test_duration_range_matches_paper(self):
        """Paper Fig. 1a: job durations roughly 10s to 300s, widely spread."""
        app = SequenceSortingApplication()
        rng = make_rng(0)
        totals = [app.sample_job(f"j{i}", 0.0, rng).true_total_work for i in range(300)]
        assert min(totals) > 5.0
        assert max(totals) < 400.0
        assert np.std(totals) > 5.0

    def test_split_and_sort_durations_correlated(self):
        """Paper Fig. 5a: stage 0 and stage 3 correlation around 0.7."""
        app = SequenceSortingApplication()
        rng = make_rng(1)
        splits, sorts = [], []
        for i in range(300):
            job = app.sample_job(f"j{i}", 0.0, rng)
            splits.append(job.stage("ss_split").total_work)
            sorts.append(job.stage("ss_sort_1").total_work)
        assert pearson_correlation(splits, sorts) > 0.4

    def test_all_stages_execute(self):
        app = SequenceSortingApplication()
        job = app.sample_job("j0", 0.0, make_rng(2))
        assert all(s.will_execute for s in job.stages.values())


class TestCodeGenerationCharacteristics:
    def test_chain_length_range(self):
        """Paper Fig. 1b: executed chain length between 3 and 15 stages."""
        app = CodeGenerationApplication()
        rng = make_rng(0)
        lengths = []
        for i in range(300):
            job = app.sample_job(f"j{i}", 0.0, rng)
            executed = sum(1 for s in job.stages.values() if s.will_execute)
            lengths.append(executed)
        assert min(lengths) >= 3
        assert max(lengths) <= 15
        assert len(set(lengths)) > 2

    def test_padded_chain_has_fifteen_stages(self):
        app = CodeGenerationApplication()
        assert len(app.profile_variables()) == 15
        job = app.sample_job("j0", 0.0, make_rng(1))
        assert len(job.stages) == 15

    def test_iteration_durations_strongly_correlated(self):
        """Paper Fig. 5b: successive code-gen stages correlate strongly."""
        app = CodeGenerationApplication()
        rng = make_rng(2)
        first, second = [], []
        for i in range(400):
            job = app.sample_job(f"j{i}", 0.0, rng)
            if job.stage("cg_codegen_1").will_execute:
                first.append(job.stage("cg_codegen_0").total_work)
                second.append(job.stage("cg_codegen_1").total_work)
        assert len(first) > 30
        assert pearson_correlation(first, second) > 0.5

    def test_duration_range_matches_paper(self):
        """Paper: code generation jobs take roughly 2s to 50s."""
        app = CodeGenerationApplication()
        rng = make_rng(3)
        totals = [app.sample_job(f"j{i}", 0.0, rng).true_total_work for i in range(300)]
        assert min(totals) > 1.0
        assert max(totals) < 80.0


class TestWebSearchCharacteristics:
    def test_rounds_bounded(self):
        app = WebSearchApplication()
        rng = make_rng(0)
        for i in range(50):
            job = app.sample_job(f"j{i}", 0.0, rng)
            executed = sum(1 for s in job.stages.values() if s.will_execute)
            assert 1 <= executed <= 1 + 2 * app.MAX_ROUNDS

    def test_think_stages_are_llm(self):
        app = WebSearchApplication()
        job = app.sample_job("j0", 0.0, make_rng(1))
        assert job.stage("ws_think_0").stage_type is StageType.LLM
        assert job.stage("ws_search_1").stage_type is StageType.REGULAR


class TestTaskAutomationCharacteristics:
    def test_generated_stage_count_matches_paper(self):
        """Paper Fig. 1c: 1 to 8 generated stages per job."""
        app = TaskAutomationApplication()
        rng = make_rng(0)
        counts = []
        for i in range(300):
            job = app.sample_job(f"j{i}", 0.0, rng)
            tools = [s for s in job.stages.values() if s.stage_id.startswith("tool_")]
            counts.append(len(tools))
        assert min(counts) >= 1
        assert max(counts) <= 8
        assert len(set(counts)) >= 4

    def test_tools_hidden_until_planner_finishes(self):
        app = TaskAutomationApplication()
        job = app.sample_job("j0", 0.0, make_rng(1))
        hidden = [s for s in job.stages.values() if s.stage_id.startswith("tool_")]
        assert hidden
        assert all(not s.visible for s in hidden)
        assert {s.stage_id for s in job.schedulable_stages()} == {"ta_plan"}

    def test_dynamic_candidates_exposed(self):
        app = TaskAutomationApplication()
        candidates = app.dynamic_candidates()[app.DYNAMIC_KEY]
        assert len(candidates) == len(app.TOOLS)
        assert all(0 < c.selection_probability < 1 for c in candidates)

    def test_duration_range_has_long_tail(self):
        """Paper: task automation jobs range from ~1s to ~116s."""
        app = TaskAutomationApplication()
        rng = make_rng(2)
        totals = [app.sample_job(f"j{i}", 0.0, rng).true_total_work for i in range(400)]
        assert min(totals) < 10.0
        assert max(totals) > 30.0
        assert max(totals) < 200.0


class TestLlmCompilerCharacteristics:
    def test_parallel_calls_between_two_and_six(self):
        app = LlmCompilerApplication()
        rng = make_rng(0)
        for i in range(100):
            job = app.sample_job(f"j{i}", 0.0, rng)
            calls = [s for s in job.stages.values() if s.stage_id.startswith("call_")]
            assert 2 <= len(calls) <= 6

    def test_join_runs_after_all_calls(self):
        app = LlmCompilerApplication()
        job = app.sample_job("j0", 0.0, make_rng(1))
        parents_of_join = set(job.parents(app.JOIN_KEY))
        assert app.DYNAMIC_KEY in parents_of_join

    def test_plan_and_join_are_llm_stages(self):
        app = LlmCompilerApplication()
        job = app.sample_job("j0", 0.0, make_rng(2))
        assert job.stage(app.PLAN_KEY).is_llm
        assert job.stage(app.JOIN_KEY).is_llm
