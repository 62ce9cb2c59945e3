"""Federation invariants: 1-shard identity, routing, cross-shard migration.

The acceptance bar for the sharding layer:

* a 1-shard :class:`FederatedSimulationEngine` with the hash router
  reproduces the single-cluster golden traces **bit for bit** for every
  registered scheduler (the federated driver is the same event loop, just
  driven from outside),
* routers are deterministic and respect their documented signals,
* cross-shard migration conserves work exactly — no progress lost at the
  checkpoint, none double-counted on resume — and meters its cost exactly
  once per migrated job.
"""

import json
from pathlib import Path

import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.dag.task import TaskState, TaskType
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    HashRouter,
    LeastLoadedRouter,
    MigrationConfig,
    TypeAffinityRouter,
    available_job_routers,
    create_job_router,
)
from repro.simulator.latency import DecodingLatencyProfile
from repro.workloads.arrivals import PoissonProcess, open_loop_jobs
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Same fixed workload + cluster the golden traces were recorded with.
SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=20, arrival_rate=1.2, seed=7)
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)

SCHEDULER_NAMES = available_schedulers(include_llmsched=True)


@pytest.fixture(scope="module")
def applications():
    return default_applications()


@pytest.fixture(scope="module")
def priors(applications):
    return ApplicationPriors.from_applications(applications.values(), n_samples=40, seed=9)


@pytest.fixture(scope="module")
def profiler(applications):
    from repro.core.profiler import BayesianProfiler

    profiler = BayesianProfiler()
    profiler.fit(applications.values(), n_profile_jobs=40, seed=9)
    return profiler


def make_scheduler(name, priors, profiler):
    if name == "llmsched":
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.06))
        return LLMSchedScheduler(profiler, config=LLMSchedConfig(), calibrator=calibrator)
    return create_scheduler(name, priors=priors)


def two_shard_fleet(router=None, config=None):
    config = config or ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)
    return FederatedCluster(
        [("s0", Cluster(config)), ("s1", Cluster(config))],
        router=router or LeastLoadedRouter(),
    )


def stream(seed=5, max_jobs=60, rate=2.0):
    return open_loop_jobs(PoissonProcess(rate=rate, seed=seed), seed=seed, max_jobs=max_jobs)


# --------------------------------------------------------------------------- #
# 1-shard identity: the federated driver is the engine, bit for bit
# --------------------------------------------------------------------------- #
class TestSingleShardIdentity:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_one_shard_matches_golden_trace(self, name, priors, profiler, applications):
        jobs = generate_workload(SPEC, applications=applications)
        fleet = FederatedCluster([("shard-0", Cluster(CLUSTER))], router=HashRouter())
        metrics = FederatedSimulationEngine(
            jobs,
            lambda: make_scheduler(name, priors, profiler),
            fleet,
            workload_name=SPEC.workload_type.value,
        ).run()
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        # Exact comparison on purpose, mirroring test_golden_traces.
        assert dict(sorted(metrics.job_completion_times.items())) == golden["jct"]
        assert metrics.makespan == golden["makespan"]
        assert metrics.num_tasks_executed == golden["num_tasks_executed"]

    def test_one_shard_matches_engine_on_open_loop_stream(self, applications):
        single = SimulationEngine(
            stream(), FcfsScheduler(), cluster=Cluster(CLUSTER)
        ).run()
        fleet = FederatedCluster([("shard-0", Cluster(CLUSTER))])
        federated = FederatedSimulationEngine(stream(), FcfsScheduler, fleet).run()
        assert federated.job_completion_times == single.job_completion_times
        assert federated.makespan == single.makespan


# --------------------------------------------------------------------------- #
# Routers
# --------------------------------------------------------------------------- #
class TestRouters:
    def test_factory_and_names(self):
        assert available_job_routers() == [
            "hash",
            "least_loaded",
            "stale_least_loaded",
            "type_affinity",
        ]
        for name in available_job_routers():
            assert create_job_router(name).name == name
        with pytest.raises(ValueError):
            create_job_router("nope")

    def test_hash_router_is_stable_and_covers_shards(self, applications):
        fleet = two_shard_fleet(router=HashRouter())
        jobs = generate_workload(SPEC, applications=applications)
        router = HashRouter()
        first = [router.select_shard(fleet.shards, job) for job in jobs]
        second = [router.select_shard(fleet.shards, job) for job in jobs]
        assert first == second  # CRC-based, not Python-hash-randomized
        assert set(first) == {0, 1}  # 20 mixed jobs land on both shards

    def test_least_loaded_router_balances_job_counts(self):
        fleet = two_shard_fleet(router=LeastLoadedRouter())
        metrics = FederatedSimulationEngine(stream(max_jobs=40), FcfsScheduler, fleet).run()
        counts = [len(m.job_completion_times) for m in metrics.shards.values()]
        assert sum(counts) == 40
        assert abs(counts[0] - counts[1]) <= 4  # near-even split under balance

    def test_type_affinity_router_prefers_capacity_of_dominant_type(self, applications):
        # Shard s1 is LLM-rich; an LLM-heavy job must land there while
        # slots are free.
        fleet = FederatedCluster(
            [
                ("s0", Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=1))),
                ("s1", Cluster(ClusterConfig(num_regular_executors=2, num_llm_executors=4))),
            ],
            router=TypeAffinityRouter(),
        )
        jobs = generate_workload(SPEC, applications=applications)
        router = fleet.router
        for job in jobs:
            llm_work = sum(s.duration for s in job.stages.values() if s.is_llm)
            total = sum(s.duration for s in job.stages.values())
            index = router.select_shard(fleet.shards, job)
            if llm_work > 0.5 * total:
                assert index == 1  # 4*4=16 free LLM slots vs 1*4=4
            else:
                assert index == 0

    def test_routers_skip_shards_that_cannot_serve_the_job(self):
        """A regular-only shard is always the emptiest, but a job with an
        LLM stage must never be routed (or migrated) there."""
        from repro.dag.task import TaskType
        from repro.simulator.pool import PoolSpec

        regular_only = Cluster(pools=[PoolSpec("cpu", TaskType.REGULAR, 16)])
        mixed = Cluster(CLUSTER)
        fleet = FederatedCluster([("cpu-only", regular_only), ("mixed", mixed)])
        jobs = generate_workload(SPEC, applications=default_applications())
        llm_jobs = [
            job for job in jobs if any(s.is_llm for s in job.stages.values())
        ]
        assert llm_jobs  # the mixed workload always has LLM stages
        for router in (HashRouter(), LeastLoadedRouter(), TypeAffinityRouter()):
            for job in llm_jobs:
                assert router.select_shard(fleet.shards, job) == 1, router.name
        # End to end: the run completes instead of stalling on the
        # capability-blind shard.
        fleet = FederatedCluster(
            [("cpu-only", Cluster(pools=[PoolSpec("cpu", TaskType.REGULAR, 16)])),
             ("mixed", Cluster(CLUSTER))],
            router=LeastLoadedRouter(),
        )
        metrics = FederatedSimulationEngine(
            stream(max_jobs=30),
            FcfsScheduler,
            fleet,
            migration=MigrationConfig(interval=10.0, imbalance_threshold=0.05),
        ).run()
        # Completion is itself the regression: a capability-blind router or
        # migrator strands an LLM-staged job on cpu-only and the run dies
        # with "federated simulation stalled".
        assert len(metrics.job_completion_times) == 30

    def test_router_returning_bad_index_is_rejected(self):
        class BrokenRouter(HashRouter):
            def select_shard(self, shards, job):
                return 99

        fleet = two_shard_fleet(router=BrokenRouter())
        engine = FederatedSimulationEngine(stream(max_jobs=5), FcfsScheduler, fleet)
        with pytest.raises(ValueError, match="returned shard index"):
            engine.run()


# --------------------------------------------------------------------------- #
# Fleet construction and safety rails
# --------------------------------------------------------------------------- #
class TestFleetConstruction:
    def test_duplicate_shard_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate shard names"):
            FederatedCluster([("s", Cluster(CLUSTER)), ("s", Cluster(CLUSTER))])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FederatedCluster([])

    def test_shared_scheduler_instance_rejected(self):
        shared = FcfsScheduler()
        fleet = two_shard_fleet()
        with pytest.raises(ValueError, match="its own scheduler"):
            FederatedSimulationEngine(stream(max_jobs=5), [shared, shared], fleet)

    def test_scheduler_count_must_match_shards(self):
        fleet = two_shard_fleet()
        with pytest.raises(ValueError, match="schedulers for"):
            FederatedSimulationEngine(stream(max_jobs=5), [FcfsScheduler()], fleet)

    def test_duplicate_job_ids_across_stream_rejected(self, applications):
        jobs = generate_workload(SPEC, applications=applications)
        dup = [jobs[0], jobs[0]]
        fleet = two_shard_fleet()
        with pytest.raises(ValueError, match="duplicate job id"):
            FederatedSimulationEngine(iter(dup), FcfsScheduler, fleet).run()


# --------------------------------------------------------------------------- #
# Migration: work conservation and exact cost metering
# --------------------------------------------------------------------------- #
def imbalanced_fleet():
    """Hash-skewed fleet: every job lands on s0, so s1 stays cold and the
    rebalancer has real work to do."""

    class AllToZero(HashRouter):
        def select_shard(self, shards, job):
            return 0

    config = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)
    return FederatedCluster(
        [("s0", Cluster(config)), ("s1", Cluster(config))], router=AllToZero()
    )


class TestMigration:
    def run_migrated(self, max_jobs=40, cost=2.5):
        jobs = list(stream(max_jobs=max_jobs, rate=3.0))
        fleet = imbalanced_fleet()
        engine = FederatedSimulationEngine(
            jobs,
            FcfsScheduler,
            fleet,
            migration=MigrationConfig(
                interval=5.0, imbalance_threshold=0.2, max_migrations_per_check=2, cost=cost
            ),
        )
        return jobs, engine, engine.run()

    def test_migrations_happen_and_all_jobs_finish(self):
        _, _, metrics = self.run_migrated()
        assert metrics.num_migrations > 0
        assert len(metrics.job_completion_times) == 40
        # Migrated jobs completed on the cold shard.
        assert len(metrics.shards["s1"].job_completion_times) > 0

    def test_migration_conserves_work_exactly(self):
        jobs, engine, metrics = self.run_migrated()
        tasks = [t for job in jobs for s in job.stages.values() for t in s.tasks]
        finished = [t for t in tasks if t.is_finished]
        # No progress lost at the checkpoint, none double-counted on resume.
        assert all(t.progress == pytest.approx(t.work) for t in finished)
        assert all(t.state is not TaskState.RUNNING for t in tasks)
        # Regular executors fleet-wide bill exactly the finished regular
        # work (speed 1): preempt/resume segments across shards add up.
        finished_regular = sum(t.work for t in finished if t.task_type is TaskType.REGULAR)
        busy = sum(
            e.busy_time
            for shard in engine.shards
            for e in shard.cluster.regular_executors
        )
        assert busy == pytest.approx(finished_regular, rel=1e-9)

    def test_migration_cost_metered_exactly_once_per_job(self):
        _, _, metrics = self.run_migrated(cost=2.5)
        assert metrics.migration_cost == pytest.approx(2.5 * metrics.num_migrations)
        assert len(metrics.migration_events) == metrics.num_migrations
        # Per-shard hand-off accounting mirrors the fleet ledger.
        assert metrics.shards["s0"].num_migrations_out == metrics.num_migrations
        assert metrics.shards["s1"].num_migrations_in == metrics.num_migrations
        for event in metrics.migration_events:
            assert event["source"] == "s0"
            assert event["target"] == "s1"
            assert event["cost"] == 2.5
            assert event["remaining_work"] >= 0.0

    def test_migrated_runs_are_deterministic(self):
        _, _, first = self.run_migrated()
        _, _, second = self.run_migrated()
        assert first.job_completion_times == second.job_completion_times
        assert first.migration_events == second.migration_events

    def test_no_migration_without_config(self):
        jobs = list(stream(max_jobs=20, rate=3.0))
        fleet = imbalanced_fleet()
        metrics = FederatedSimulationEngine(jobs, FcfsScheduler, fleet).run()
        assert metrics.num_migrations == 0
        assert metrics.migration_cost == 0.0
        # Without rebalancing the cold shard never sees a job.
        assert len(metrics.shards["s1"].job_completion_times) == 0

    def test_migration_balances_load_and_helps_jct(self):
        """Rebalancing a pathologically skewed fleet must beat leaving the
        hot shard to drown (the cold shard idles otherwise)."""
        jobs = list(stream(max_jobs=40, rate=3.0))
        skewed = FederatedSimulationEngine(jobs, FcfsScheduler, imbalanced_fleet()).run()
        _, _, migrated = self.run_migrated()
        assert migrated.average_jct < skewed.average_jct

    def test_rebalancing_converges_instead_of_ping_ponging(self):
        """The hot/cold gap is re-evaluated after every moved job: draining
        a whole max_migrations_per_check batch from one up-front load
        snapshot overshoots past balance and bounces the same jobs between
        shards on every check for the rest of the run."""
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType

        def regular_job(job_id, arrival):
            job = Job(job_id, "app", arrival)
            job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [300.0]))
            job.finalize()
            return job

        class AllToZero(HashRouter):
            def select_shard(self, shards, job):
                return 0

        jobs = [regular_job(f"j{i}", float(i)) for i in range(6)]
        config = ClusterConfig(num_regular_executors=1, num_llm_executors=1)
        fleet = FederatedCluster(
            [("a", Cluster(config)), ("b", Cluster(config))], router=AllToZero()
        )
        metrics = FederatedSimulationEngine(
            jobs,
            FcfsScheduler,
            fleet,
            migration=MigrationConfig(
                interval=10.0, imbalance_threshold=0.2, max_migrations_per_check=4
            ),
        ).run()
        assert len(metrics.job_completion_times) == 6
        # Balance needs ~3 one-way moves; a ping-ponging rebalancer racks
        # up hundreds over the long run.
        assert metrics.num_migrations <= 6

    def test_migration_at_stale_shard_clock_conserves_elapsed_progress(self):
        """The migration tick is a fleet event: the hot shard's own clock
        may lag it.  The checkpoint must bank the work simulated up to the
        *fleet* time, not roll back to the shard's last event."""
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType

        def regular_job(job_id, work, arrival):
            job = Job(job_id, "app", arrival)
            job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [work]))
            job.finalize()
            return job

        class AllToZero(HashRouter):
            def select_shard(self, shards, job):
                return 0

        # Two long jobs land on s0 (last shard event: t=1); s1 idles.  The
        # migration tick at t=7 moves the newest job with its running task.
        jobs = [regular_job("j0", 50.0, 0.0), regular_job("j1", 60.0, 1.0)]
        config = ClusterConfig(num_regular_executors=2, num_llm_executors=1)
        fleet = FederatedCluster(
            [("s0", Cluster(config)), ("s1", Cluster(config))], router=AllToZero()
        )
        metrics = FederatedSimulationEngine(
            jobs,
            FcfsScheduler,
            fleet,
            # Threshold below the initial 2-vs-0 imbalance (0.2 jobs/slot)
            # but above the 1-vs-0 tail once j0 completes, so exactly one
            # migration fires.
            migration=MigrationConfig(
                interval=7.0, imbalance_threshold=0.15, max_migrations_per_check=1
            ),
        ).run()
        assert metrics.num_migrations == 1
        assert metrics.migration_events[0]["job_id"] == "j1"
        # j1 ran on s0 for 6s (t=1..7), was checkpointed with that progress
        # and resumed on s1 at t=7: finish 7 + (60 - 6) = 61, JCT 60.  A
        # stale-clock checkpoint would bank 0s and finish at 67 instead.
        assert metrics.migration_events[0]["remaining_work"] == pytest.approx(54.0)
        assert metrics.job_completion_times["j1"] == pytest.approx(60.0)
        assert metrics.job_completion_times["j0"] == pytest.approx(50.0)

    def test_fleet_metrics_to_dict(self):
        _, _, metrics = self.run_migrated()
        summary = metrics.to_dict()
        assert summary["num_shards"] == 2
        assert summary["num_jobs"] == 40
        assert summary["num_migrations"] == metrics.num_migrations
        assert set(summary["utilization"]) == {"regular", "llm"}
        assert summary["num_events"] == sum(
            m.num_events for m in metrics.shards.values()
        )
