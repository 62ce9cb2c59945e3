"""Offline preparation: settings validation, priors/profiler, cluster sizing, the memo."""

import sys
from dataclasses import replace

import pytest

from repro import api
from repro.api import (
    PAPER_BASELINES,
    ClusterSection,
    ExperimentSettings,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
    build_priors,
    build_profiler,
    dispatch,
    prep,
    size_cluster,
    split_cluster_config,
)
from repro.core.profiler import BayesianProfiler
from repro.simulator.cluster import ClusterConfig
from repro.workloads.mixtures import (
    APPLICATION_NAMES,
    WorkloadSpec,
    WorkloadType,
    default_applications,
)

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
        profiled = {name for name in APPLICATION_NAMES if profiler.has_profile(name)}
        assert profiled == set(applications)

    def test_cluster_sizing_grows_with_llm_heavy_mix(self, applications):
        heavy = size_cluster(
            0.9, WorkloadSpec(WorkloadType.PREDEFINED).application_names, applications, TINY
        )
        light = size_cluster(
            0.9, WorkloadSpec(WorkloadType.PLANNING).application_names, applications, TINY
        )
        # Predefined jobs carry far more LLM work per job than planning jobs.
        assert heavy.num_llm_executors > light.num_llm_executors
        assert light.num_regular_executors >= 2

    def test_cluster_sizing_grows_with_arrival_rate(self, applications):
        mixed = WorkloadSpec(WorkloadType.MIXED).application_names
        slow = size_cluster(0.5, mixed, applications, TINY)
        fast = size_cluster(1.5, mixed, applications, TINY)
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


class TestMemo:
    """``api.run`` builds each offline artifact once per input, per process."""

    CLUSTER = ClusterSection(config=ClusterConfig(num_regular_executors=3, num_llm_executors=2))

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts profile fits, priors builds and sizings, starting from an empty memo."""
        prep._memo.clear()
        counts = {"fit": 0, "priors": 0, "sizing": 0}

        def counting(kind, original):
            def counted(*args, **kwargs):
                counts[kind] += 1
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(BayesianProfiler, "fit", counting("fit", BayesianProfiler.fit))
        monkeypatch.setattr(prep, "build_priors", counting("priors", prep.build_priors))
        monkeypatch.setattr(prep, "size_cluster", counting("sizing", prep.size_cluster))
        return counts

    def spec(self, scheduler, settings=TINY, cluster=CLUSTER, arrival_rate=1.0):
        return ScenarioSpec(
            scheduler=SchedulerSection(scheduler),
            workload=WorkloadSection.closed_loop(
                "planning", num_jobs=4, arrival_rate=arrival_rate, seed=3
            ),
            cluster=cluster,
            settings=settings,
        )

    def test_equal_settings_fit_once(self, builds):
        first = api.run(self.spec("llmsched"))
        second = api.run(self.spec("llmsched"))
        assert builds["fit"] == 1
        assert first.job_completion_times == second.job_completion_times

    def test_a_changed_fit_input_fits_again(self, builds):
        api.run(self.spec("llmsched"))
        # Inputs the fit does not read share its entry.
        api.run(self.spec("llmsched", replace(TINY, prior_samples=16, target_load=0.8)))
        assert builds["fit"] == 1
        api.run(self.spec("llmsched", replace(TINY, profile_jobs=31)))
        api.run(self.spec("llmsched", replace(TINY, profiler_seed=78)))
        assert builds["fit"] == 3

    def test_each_run_builds_only_what_its_scheduler_needs(self, builds):
        api.run(self.spec("fcfs"))
        assert builds == {"fit": 0, "priors": 0, "sizing": 0}
        api.run(self.spec("sjf"))
        api.run(self.spec("sjf"))
        assert builds == {"fit": 0, "priors": 1, "sizing": 0}

    def test_a_sized_cluster_is_sized_once_per_rate(self, builds):
        sized = ClusterSection()
        grid = {"scheduler.name": ["fcfs", "fair", "argus"]}
        api.run_grid(self.spec("fcfs", cluster=sized), grid, processes=1)
        assert builds["sizing"] == 1
        api.run(self.spec("fcfs", cluster=sized, arrival_rate=1.5))
        assert builds["sizing"] == 2

    def test_each_run_gets_fresh_query_caches_over_the_shared_fit(self, builds, monkeypatch):
        handed_out = []

        def recording(settings, applications):
            profiler = prep.prepared_profiler(settings, applications)
            caches = (profiler._marginal_cache, profiler._moment_cache, profiler._reduction_cache)
            handed_out.append((profiler, caches, [len(cache) for cache in caches]))
            return profiler

        monkeypatch.setattr(dispatch, "prepared_profiler", recording)
        api.run(self.spec("llmsched"))
        api.run(self.spec("llmsched"))
        (first, first_caches, first_sizes), (second, second_caches, second_sizes) = handed_out
        assert first_sizes == second_sizes == [0, 0, 0]
        assert all(len(cache) > 0 for cache in first_caches)  # the first run filled its own
        assert all(a is not b for a, b in zip(first_caches, second_caches, strict=True))
        assert builds["fit"] == 1
        for name in APPLICATION_NAMES:
            assert first.profile_for(name) is second.profile_for(name)

    def test_a_cold_run_builds_the_templates_once(self, builds, monkeypatch):
        build, calls = default_applications, []

        def counted():
            calls.append(1)
            return build()

        for module in list(sys.modules.values()):
            if getattr(module, "default_applications", None) is build:
                monkeypatch.setattr(module, "default_applications", counted)
        api.run(self.spec("llmsched", cluster=ClusterSection()))
        assert builds == {"fit": 1, "priors": 0, "sizing": 1}
        assert len(calls) == 1

    def test_the_memo_keeps_the_eight_latest_artifacts(self, builds):
        rates = [1.0 + step / 10 for step in range(9)]
        for rate in rates:
            api.run(self.spec("fcfs", cluster=ClusterSection(), arrival_rate=rate))
        assert builds["sizing"] == 9 and len(prep._memo) == 8
        api.run(self.spec("fcfs", cluster=ClusterSection(), arrival_rate=rates[-1]))
        assert builds["sizing"] == 9  # the latest entry is still held
        api.run(self.spec("fcfs", cluster=ClusterSection(), arrival_rate=rates[0]))
        assert builds["sizing"] == 10  # the oldest was evicted
