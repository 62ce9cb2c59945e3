"""Dispatch tests: ``repro.api.run`` reproduces the golden traces.

The headline test replays every golden trace (all 8 registered schedulers)
through the declarative front door and compares the per-job JCTs and the
makespan **exactly** against ``tests/golden/``.  The remaining tests pin
each optional layer a spec section switches on (LLMSched variants,
placement, async, autoscaler, federation), grids, the uniform
:class:`~repro.api.Result` schema, and the cluster conflict check:
``config`` + ``pools`` raise instead of silently preferring pools.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro import api
from repro.api import (
    AsyncSection,
    ClusterSection,
    ExperimentSettings,
    PlacementSection,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
)
from repro.core.llmsched import LLMSchedConfig
from repro.dag.task import TaskType
from repro.schedulers.registry import available_schedulers
from repro.simulator.autoscaler import AutoscalerConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.federation import MigrationConfig
from repro.simulator.pool import PoolSpec
from repro.workloads.arrivals import DiurnalProcess, PoissonProcess

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The exact preparation the golden traces were recorded with.
GOLDEN_SETTINGS = ExperimentSettings(profile_jobs=40, prior_samples=40, profiler_seed=9)
GOLDEN_WORKLOAD = WorkloadSection.closed_loop("mixed", num_jobs=20, arrival_rate=1.2, seed=7)
GOLDEN_CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)

TINY = ExperimentSettings(profile_jobs=30, prior_samples=15, llmsched=LLMSchedConfig(seed=0))


def golden_scenario(name):
    return ScenarioSpec(
        scheduler=SchedulerSection(name),
        workload=GOLDEN_WORKLOAD,
        cluster=ClusterSection(config=GOLDEN_CLUSTER),
        settings=GOLDEN_SETTINGS,
    )


class TestGoldenIdentity:
    @pytest.mark.parametrize("name", available_schedulers())
    def test_api_run_matches_golden_trace(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        result = api.run(golden_scenario(name))
        assert dict(sorted(result.metrics.job_completion_times.items())) == golden["jct"]
        assert result.metrics.makespan == golden["makespan"]
        assert result.metrics.num_tasks_executed == golden["num_tasks_executed"]

    def test_pure_spec_path_matches_golden_llmsched(self):
        """No overrides at all: priors/profiler built from the spec settings."""
        golden = json.loads((GOLDEN_DIR / "llmsched.json").read_text())
        result = api.run(golden_scenario("llmsched"))
        assert dict(sorted(result.metrics.job_completion_times.items())) == golden["jct"]
        assert result.metrics.makespan == golden["makespan"]

    def test_spec_survives_json_roundtrip_bit_identically(self):
        spec = golden_scenario("fcfs")
        replayed = ScenarioSpec.from_json(spec.to_json())
        a = api.run(spec)
        b = api.run(replayed)
        assert a.metrics.job_completion_times == b.metrics.job_completion_times
        assert a.metrics.makespan == b.metrics.makespan


class TestLLMSchedVariants:
    @pytest.mark.parametrize(
        "name", ["llmsched", "llmsched_wo_bn", "llmsched_wo_uncertainty", "llmsched_wo_calibration"]
    )
    def test_variant_runs_end_to_end(self, name):
        result = api.run(
            ScenarioSpec(
                scheduler=SchedulerSection(name),
                workload=WorkloadSection.closed_loop(
                    "planning", num_jobs=12, arrival_rate=1.0, seed=3
                ),
                settings=TINY,
            ),
        )
        assert result.metrics.scheduler_name == name
        assert len(result.metrics.job_completion_times) == 12


class TestConflictBugfix:
    """A cluster section with both a config and pools used to prefer pools."""

    POOLS = (
        PoolSpec("cpu", TaskType.REGULAR, 4),
        PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=4),
    )

    def test_spec_validation_mirrors_the_check(self):
        with pytest.raises(ValueError, match="not both"):
            ClusterSection(config=ClusterConfig(), pools=self.POOLS)


class TestGridAndResult:
    def test_run_grid_matches_individual_runs(self):
        base = ScenarioSpec(
            workload=WorkloadSection.closed_loop("mixed", num_jobs=8, arrival_rate=1.0, seed=6),
            settings=TINY,
        )
        rows = api.run_grid(
            base,
            {"workload.arrival_rate": [0.8, 1.6], "scheduler.name": ["fcfs", "sjf"]},
            processes=1,
        )
        assert [o for o, _ in rows] == [
            {"workload.arrival_rate": 0.8, "scheduler.name": "fcfs"},
            {"workload.arrival_rate": 0.8, "scheduler.name": "sjf"},
            {"workload.arrival_rate": 1.6, "scheduler.name": "fcfs"},
            {"workload.arrival_rate": 1.6, "scheduler.name": "sjf"},
        ]
        solo = api.run(
            api.with_overrides(base, {"workload.arrival_rate": 1.6, "scheduler.name": "sjf"}),
        )
        assert rows[3][1].metrics.job_completion_times == solo.metrics.job_completion_times

    def test_run_grid_parallel_matches_serial(self):
        base = ScenarioSpec(
            workload=WorkloadSection.closed_loop("mixed", num_jobs=8, arrival_rate=1.0, seed=6),
            settings=TINY,
        )
        axes = {"scheduler.name": ["fcfs", "fair"]}
        serial = api.run_grid(base, axes, processes=1)
        parallel = api.run_grid(base, axes, processes=2)
        for (_, a), (_, b) in zip(serial, parallel, strict=True):
            assert a.metrics.job_completion_times == b.metrics.job_completion_times

    def test_run_grid_validates_axes(self):
        base = ScenarioSpec(workload=WorkloadSection.closed_loop(num_jobs=5), settings=TINY)
        with pytest.raises(ValueError, match="at least one value"):
            api.run_grid(base, {"scheduler.name": []})
        with pytest.raises(ValueError, match="at least one override axis"):
            api.run_grid(base, {})

    def test_result_schema(self):
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.closed_loop("mixed", num_jobs=6, arrival_rate=1.0),
                settings=TINY,
            ),
        )
        payload = result.to_dict()
        assert payload["schema_version"] == api.SCHEMA_VERSION
        assert payload["metrics"]["num_jobs"] == 6
        assert payload["wall_clock_sec"] > 0
        # The resolved spec records the auto-sized cluster config.
        assert payload["spec"]["cluster"]["config"]["num_llm_executors"] >= 1
        json.dumps(payload)  # JSON-serializable end to end
        lean = result.to_dict(include_spec=False)
        assert "spec" not in lean

    def test_run_takes_only_the_spec_and_run_grid_is_the_only_sweep(self):
        assert list(inspect.signature(api.run).parameters) == ["spec"]
        assert not {"compare", "ComparisonResult", "run_specs"} & set(api.__all__)

    def test_scheduler_grid_shares_draw_and_cluster(self):
        scenario = ScenarioSpec(
            workload=WorkloadSection.closed_loop("mixed", num_jobs=10, arrival_rate=1.2, seed=4),
            settings=TINY,
        )
        rows = api.run_grid(scenario, {"scheduler.name": ["fcfs", "sjf"]}, processes=1)
        (_, fcfs), (_, sjf) = rows
        assert [r.spec.scheduler.name for _, r in rows] == ["fcfs", "sjf"]
        assert set(fcfs.job_completion_times) == set(sjf.job_completion_times)
        assert fcfs.spec.cluster == sjf.spec.cluster  # one memo-sized cluster

    def test_open_loop_run_sizes_cluster_from_process_rate(self):
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.open_loop(
                    PoissonProcess(rate=1.0, seed=5), seed=5, max_jobs=15
                ),
                settings=TINY,
            ),
        )
        assert result.metrics.workload_name == "open_loop"
        assert len(result.metrics.job_completion_times) == 15
        assert result.spec.cluster.config is not None  # auto-sized, recorded

    def test_open_loop_run_sizes_cluster_from_nominal_rate(self):
        # The resolved spec records the sized config in place of the rate
        # that chose it, so it stays a valid spec that round-trips.
        spec = ScenarioSpec(
            workload=WorkloadSection.open_loop(PoissonProcess(rate=1.0, seed=5).take(5), seed=5),
            cluster=ClusterSection(nominal_rate=1.0),
            settings=TINY,
        )
        result = api.run(spec)
        assert len(result.metrics.job_completion_times) == 5
        assert result.spec.cluster.config is not None
        assert result.spec.cluster.nominal_rate is None
        assert ScenarioSpec.from_dict(result.spec.to_dict()) == result.spec

    def test_open_loop_sizing_needs_rate(self):
        with pytest.raises(ValueError, match="nominal_rate"):
            ScenarioSpec(
                workload=WorkloadSection.open_loop(
                    PoissonProcess(rate=1.0, seed=5).take(5), seed=5
                ),
                settings=TINY,
            )

    def test_placement_section_resolves(self):
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.closed_loop("mixed", num_jobs=8, arrival_rate=1.2, seed=6),
                cluster=ClusterSection(pools=TestConflictBugfix.POOLS),
                placement=PlacementSection("best_fit"),
                settings=TINY,
            ),
        )
        assert len(result.metrics.job_completion_times) == 8

    def test_placement_policy_grid_runs_each_policy(self):
        base = ScenarioSpec(
            workload=WorkloadSection.closed_loop("mixed", num_jobs=8, arrival_rate=1.2, seed=6),
            cluster=ClusterSection(
                pools=(
                    PoolSpec("cpu", TaskType.REGULAR, 4),
                    PoolSpec("gpu-a", TaskType.LLM, 1, max_batch_size=4),
                    PoolSpec("gpu-b", TaskType.LLM, 1, max_batch_size=4),
                )
            ),
            settings=TINY,
        )
        rows = api.run_grid(base, {"placement.name": ["greedy", "best_fit"]}, processes=1)
        assert [o["placement.name"] for o, _ in rows] == ["greedy", "best_fit"]
        for overrides, result in rows:
            assert result.spec.placement.name == overrides["placement.name"]
            assert len(result.metrics.job_completion_times) == 8

    def test_decision_latency_grid_zero_is_synchronous(self):
        base = ScenarioSpec(
            workload=WorkloadSection.closed_loop("mixed", num_jobs=10, arrival_rate=1.0, seed=6),
            settings=TINY,
        )
        rows = api.run_grid(base, {"async.latency": [0.0, 2.0]}, processes=1)
        by_latency = {o["async.latency"]: r.metrics for o, r in rows}
        assert set(by_latency) == {0.0, 2.0}
        assert all(len(m.job_completion_times) == 10 for m in by_latency.values())
        assert by_latency[2.0].num_async_decisions > 0
        # Latency 0 is the synchronous engine bit for bit.
        sync = api.run(base)
        assert by_latency[0.0].job_completion_times == sync.metrics.job_completion_times
        # Charged latency must not help.
        assert by_latency[2.0].average_jct >= by_latency[0.0].average_jct

    def test_autoscaler_section_resizes_pools(self):
        pools = (
            PoolSpec("cpu", TaskType.REGULAR, 2, min_executors=2, max_executors=16),
            PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=4, min_executors=1, max_executors=8),
        )
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.open_loop(
                    DiurnalProcess(mean_rate=1.0, amplitude=0.9, period=300.0, seed=4),
                    seed=4, max_jobs=25, name="diurnal",
                ),
                cluster=ClusterSection(pools=pools),
                autoscaler=AutoscalerConfig(interval=15.0, step=2),
                settings=TINY,
            ),
        )
        assert result.metrics.workload_name == "diurnal"
        assert len(result.metrics.job_completion_times) == 25
        assert result.metrics.scale_events  # the diurnal peak resized the pools

    def test_federated_run_reports_shards_and_router(self):
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.open_loop(
                    PoissonProcess(rate=2.0, seed=5), seed=5, max_jobs=30, name="poisson"
                ),
                cluster=ClusterSection(
                    config=ClusterConfig(num_regular_executors=6, num_llm_executors=2),
                    num_shards=2,
                    migration=MigrationConfig(interval=20.0, imbalance_threshold=0.3),
                ),
                settings=TINY,
            ),
        )
        assert result.is_federated
        assert set(result.metrics.shards) == {"shard-0", "shard-1"}
        assert result.metrics.router_name == "least_loaded"
        assert len(result.metrics.job_completion_times) == 30

    def test_shard_count_grid_replays_one_stream(self):
        base = ScenarioSpec(
            workload=WorkloadSection.open_loop(
                PoissonProcess(rate=3.0, seed=9), seed=9, max_jobs=24, name="poisson"
            ),
            cluster=ClusterSection(
                config=ClusterConfig(num_regular_executors=8, num_llm_executors=4),
                num_shards=2,
            ),
            settings=TINY,
        )
        rows = api.run_grid(base, {"cluster.num_shards": [1, 2]}, processes=1)
        (_, single), (_, fleet) = rows
        assert not single.is_federated and fleet.is_federated
        assert len(fleet.metrics.shards) == 2
        jobs = set(single.metrics.job_completion_times)
        assert len(jobs) == 24 and set(fleet.metrics.job_completion_times) == jobs

    def test_async_section_resolves(self):
        result = api.run(
            ScenarioSpec(
                workload=WorkloadSection.closed_loop("mixed", num_jobs=8, arrival_rate=1.5, seed=6),
                async_=AsyncSection(latency=1.0),
                settings=TINY,
            ),
        )
        assert result.metrics.num_async_decisions > 0


class TestSnapshotPolicyPlumbing:
    """``settings.snapshot_policy`` reaches the engines through the spec.

    The COW-vs-deepcopy observational identity is pinned in depth by
    tests/test_context_snapshot.py at the engine level; here we prove the
    declarative path actually selects the policy (no silent default) and
    that both policies produce bit-identical results through ``api.run``.
    """

    def _async_spec(self, policy, num_shards=1):
        if num_shards > 1:
            workload = WorkloadSection.open_loop(
                PoissonProcess(rate=1.2), max_jobs=10, seed=3
            )
            cluster = ClusterSection(
                config=ClusterConfig(num_regular_executors=4, num_llm_executors=2),
                num_shards=num_shards,
            )
        else:
            workload = WorkloadSection.closed_loop(
                "mixed", num_jobs=8, arrival_rate=1.5, seed=6
            )
            cluster = ClusterSection()
        return ScenarioSpec(
            workload=workload,
            cluster=cluster,
            async_=AsyncSection(latency=0.5),
            settings=ExperimentSettings(
                profile_jobs=30,
                prior_samples=15,
                snapshot_policy=policy,
                llmsched=LLMSchedConfig(seed=0),
            ),
        )

    def test_policies_bit_identical_single(self):
        cow = api.run(self._async_spec("cow"))
        deep = api.run(self._async_spec("deepcopy"))
        assert cow.metrics.job_completion_times == deep.metrics.job_completion_times
        assert cow.metrics.makespan == deep.metrics.makespan
        assert cow.metrics.num_async_decisions == deep.metrics.num_async_decisions

    def test_policies_bit_identical_federated(self):
        cow = api.run(self._async_spec("cow", num_shards=2))
        deep = api.run(self._async_spec("deepcopy", num_shards=2))
        assert cow.metrics.job_completion_times == deep.metrics.job_completion_times
        assert cow.metrics.makespan == deep.metrics.makespan

    def test_policy_reaches_the_engine(self, monkeypatch):
        # Guard against the plumbing silently falling back to the default:
        # capture the SimulationConfig the dispatcher builds.
        from repro.api import dispatch as dispatch_module
        from repro.simulator.engine import SimulationEngine

        seen = {}
        original = SimulationEngine.__init__

        def spy(self, *args, **kwargs):
            seen["policy"] = kwargs["config"].snapshot_policy
            return original(self, *args, **kwargs)

        monkeypatch.setattr(dispatch_module.SimulationEngine, "__init__", spy)
        api.run(self._async_spec("deepcopy"))
        assert seen["policy"] == "deepcopy"
