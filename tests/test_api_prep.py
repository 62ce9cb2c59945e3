"""Offline preparation: settings validation, priors/profiler, cluster sizing."""

import pytest

from repro.api import (
    PAPER_BASELINES,
    ExperimentSettings,
    build_priors,
    build_profiler,
    size_cluster_for_workload,
    split_cluster_config,
)
from repro.simulator.cluster import ClusterConfig
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, default_applications

TINY = ExperimentSettings(profile_jobs=30, prior_samples=15)

#: (field, value) settings that no run can use; the error must name the field
#: (tests/test_api_cli.py checks that ``repro validate`` rejects them too).
BAD_SETTINGS = [
    ("profile_jobs", 0),
    ("profile_jobs", 1),
    ("profile_jobs", "10"),
    ("profile_jobs", True),
    ("prior_samples", 0),
    ("max_batch_size", 0),
    ("profiler_seed", -1),
    ("latency_slope", -1),
    ("latency_slope", float("nan")),
    ("target_load", True),
    ("target_load", "1.0"),
]


@pytest.fixture(scope="module")
def applications():
    return default_applications()


class TestSettings:
    def test_target_load_bounds(self):
        with pytest.raises(ValueError, match="target_load"):
            ExperimentSettings(target_load=0.0)
        with pytest.raises(ValueError, match="target_load"):
            ExperimentSettings(target_load=2.5)
        assert ExperimentSettings(target_load=2.0).target_load == 2.0

    @pytest.mark.parametrize(
        "field, value", BAD_SETTINGS, ids=[f"{f}={v!r}" for f, v in BAD_SETTINGS]
    )
    def test_unusable_value_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentSettings(**{field: value})

    def test_paper_baseline_order(self):
        assert PAPER_BASELINES == ["fcfs", "sjf", "fair", "argus", "decima", "carbyne"]


class TestPreparation:
    def test_priors_cover_all_applications(self, applications):
        priors = build_priors(applications, TINY)
        for name in applications:
            assert priors.knows(name)
            assert priors.mean_duration(name) > 0

    def test_profiler_covers_all_applications(self, applications):
        profiler = build_profiler(applications, TINY)
        assert set(profiler.applications) == set(applications)

    def test_cluster_sizing_grows_with_llm_heavy_mix(self, applications):
        heavy = size_cluster_for_workload(
            WorkloadSpec(WorkloadType.PREDEFINED, num_jobs=50, arrival_rate=0.9), applications, TINY
        )
        light = size_cluster_for_workload(
            WorkloadSpec(WorkloadType.PLANNING, num_jobs=50, arrival_rate=0.9), applications, TINY
        )
        # Predefined jobs carry far more LLM work per job than planning jobs.
        assert heavy.num_llm_executors > light.num_llm_executors
        assert light.num_regular_executors >= 2

    def test_cluster_sizing_grows_with_arrival_rate(self, applications):
        slow = size_cluster_for_workload(
            WorkloadSpec(WorkloadType.MIXED, num_jobs=50, arrival_rate=0.5), applications, TINY
        )
        fast = size_cluster_for_workload(
            WorkloadSpec(WorkloadType.MIXED, num_jobs=50, arrival_rate=1.5), applications, TINY
        )
        assert fast.num_llm_executors >= slow.num_llm_executors


class TestSplitClusterConfig:
    def test_preserves_totals(self):
        total = ClusterConfig(num_regular_executors=10, num_llm_executors=5, max_batch_size=4)
        shards = split_cluster_config(total, 4)
        assert sum(c.num_regular_executors for c in shards) == 10
        assert sum(c.num_llm_executors for c in shards) == 5
        assert all(c.num_llm_executors >= 1 for c in shards)
        assert all(c.max_batch_size == 4 for c in shards)

    def test_rejects_too_many_shards(self):
        total = ClusterConfig(num_regular_executors=10, num_llm_executors=5)
        with pytest.raises(ValueError, match="cannot split"):
            split_cluster_config(total, 6)  # only 5 LLM executors to go around
