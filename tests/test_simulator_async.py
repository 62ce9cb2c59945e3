"""Tests for the asynchronous scheduling subsystem (decision latency,
stale snapshots, conflict resolution, pipelining, stale-view routing)."""

import json
from pathlib import Path

import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.dag.task import TaskState
from repro.schedulers.base import (
    PreemptionDirective,
    SchedulingContext,
    SchedulingDecision,
)
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.simulator.async_sched import (
    AsyncConfig,
    AsyncSchedulerBackend,
    FixedLatency,
    PerJobLinearLatency,
    SampledLatency,
    create_latency_model,
)
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    LeastLoadedRouter,
    StaleLeastLoadedRouter,
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

SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=20, arrival_rate=1.2, seed=7)
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)


@pytest.fixture(scope="module")
def applications():
    return default_applications()


@pytest.fixture(scope="module")
def priors(applications):
    return ApplicationPriors.from_applications(applications.values(), n_samples=40, seed=9)


@pytest.fixture(scope="module")
def profiler(applications):
    profiler = BayesianProfiler()
    profiler.fit(applications.values(), n_profile_jobs=40, seed=9)
    return profiler


def make_scheduler(name, priors, profiler):
    if name == "llmsched":
        calibrator = BatchingAwareCalibrator(DecodingLatencyProfile(slope=0.06))
        return LLMSchedScheduler(profiler, config=LLMSchedConfig(), calibrator=calibrator)
    return create_scheduler(name, priors=priors)


def run_async(scheduler, async_config, applications, spec=SPEC, cluster=CLUSTER):
    jobs = generate_workload(spec, applications=applications)
    engine = SimulationEngine(
        jobs,
        scheduler,
        cluster=Cluster(cluster),
        workload_name=spec.workload_type.value,
        async_backend=AsyncSchedulerBackend(async_config) if async_config else None,
    )
    return engine.run()


# --------------------------------------------------------------------------- #
# Latency models and configuration
# --------------------------------------------------------------------------- #
class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(1.5)
        assert model.latency(SchedulingContext(time=0.0, jobs=[])) == 1.5
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_per_job_linear(self, applications):
        jobs = generate_workload(SPEC, applications=applications)[:5]
        model = PerJobLinearLatency(base=0.5, per_job=0.1)
        context = SchedulingContext(time=0.0, jobs=jobs)
        assert model.latency(context) == pytest.approx(0.5 + 0.1 * 5)
        with pytest.raises(ValueError):
            PerJobLinearLatency(per_job=-0.1)

    def test_sampled_is_deterministic(self):
        context = SchedulingContext(time=0.0, jobs=[])
        first = SampledLatency([0.1, 0.5, 2.0], seed=3)
        second = SampledLatency([0.1, 0.5, 2.0], seed=3)
        draws = [first.latency(context) for _ in range(20)]
        assert draws == [second.latency(context) for _ in range(20)]
        assert set(draws) <= {0.1, 0.5, 2.0}
        first.reset()
        assert [first.latency(context) for _ in range(20)] == draws
        with pytest.raises(ValueError):
            SampledLatency([])
        with pytest.raises(ValueError):
            SampledLatency([-0.5])

    def test_factory_coerces_numbers(self):
        assert isinstance(create_latency_model(2.0), FixedLatency)
        model = PerJobLinearLatency()
        assert create_latency_model(model) is model

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AsyncConfig(latency=-1.0)
        with pytest.raises(ValueError):
            AsyncConfig(max_in_flight=0)
        assert AsyncConfig(pipelined=True, max_in_flight=3).depth == 3
        assert AsyncConfig(pipelined=False, max_in_flight=3).depth == 1


# --------------------------------------------------------------------------- #
# Golden identity at latency zero
# --------------------------------------------------------------------------- #
class TestLatencyZeroIdentity:
    """The async backend at latency 0 (non-pipelined) must be bit-identical
    to the synchronous engine — verified against the committed golden traces
    for every registered scheduler."""

    @pytest.mark.parametrize("name", available_schedulers(include_llmsched=True))
    def test_matches_golden_trace(self, name, priors, profiler, applications):
        golden_path = GOLDEN_DIR / f"{name}.json"
        assert golden_path.exists(), f"missing golden trace {golden_path}"
        golden = json.loads(golden_path.read_text())
        metrics = run_async(
            make_scheduler(name, priors, profiler),
            AsyncConfig(latency=0.0, pipelined=False),
            applications,
        )
        assert dict(sorted(metrics.job_completion_times.items())) == golden["jct"]
        assert metrics.makespan == golden["makespan"]
        assert metrics.num_tasks_executed == golden["num_tasks_executed"]
        # Latency 0 short-circuits: no decision ever goes in flight.
        assert metrics.num_async_decisions == 0
        assert metrics.num_stale_placements == 0
        assert metrics.num_placement_conflicts == 0


# --------------------------------------------------------------------------- #
# Latency degradation and staleness accounting
# --------------------------------------------------------------------------- #
class TestDecisionLatency:
    def test_latency_delays_completion(self, applications):
        sync = run_async(FcfsScheduler(), None, applications)
        slow = run_async(FcfsScheduler(), AsyncConfig(latency=2.0), applications)
        assert slow.average_jct > sync.average_jct
        assert slow.makespan > sync.makespan
        assert slow.num_async_decisions > 0
        assert slow.decision_latency.mean == pytest.approx(2.0)
        # Decisions apply no earlier than their latency window.
        assert slow.decision_staleness.mean >= 2.0 - 1e-9

    def test_all_work_conserved_under_latency(self, applications):
        sync = run_async(FcfsScheduler(), None, applications)
        for latency in (0.5, 2.0, 5.0):
            metrics = run_async(FcfsScheduler(), AsyncConfig(latency=latency), applications)
            assert set(metrics.job_completion_times) == set(sync.job_completion_times)
            assert metrics.num_tasks_executed == sync.num_tasks_executed

    def test_degradation_grows_with_latency(self, applications):
        jcts = [
            run_async(FcfsScheduler(), AsyncConfig(latency=latency), applications).average_jct
            for latency in (0.0, 1.0, 4.0)
        ]
        assert jcts == sorted(jcts)
        assert jcts[-1] > jcts[0]

    def test_async_runs_are_deterministic(self, applications):
        first = run_async(FcfsScheduler(), AsyncConfig(latency=1.0), applications)
        second = run_async(FcfsScheduler(), AsyncConfig(latency=1.0), applications)
        assert first.job_completion_times == second.job_completion_times
        assert first.makespan == second.makespan

    def test_sampled_latency_run_is_deterministic(self, applications):
        config = AsyncConfig(latency=SampledLatency([0.2, 1.0, 3.0], seed=11))
        first = run_async(FcfsScheduler(), config, applications)
        # The backend resets the model at construction, so reusing the same
        # config replays the identical draws.
        second = run_async(FcfsScheduler(), config, applications)
        assert first.job_completion_times == second.job_completion_times

    def test_per_job_linear_latency_runs(self, applications):
        metrics = run_async(
            FcfsScheduler(),
            AsyncConfig(latency=PerJobLinearLatency(base=0.1, per_job=0.05)),
            applications,
        )
        assert len(metrics.job_completion_times) == SPEC.num_jobs
        assert metrics.num_async_decisions > 0
        assert metrics.decision_latency.mean > 0.1


class TestPipelinedMode:
    def test_pipelining_beats_blocking_at_same_latency(self, applications):
        blocking = run_async(FcfsScheduler(), AsyncConfig(latency=1.0), applications)
        pipelined = run_async(
            FcfsScheduler(),
            AsyncConfig(latency=1.0, pipelined=True, max_in_flight=3),
            applications,
        )
        # Overlapping decisions recover throughput lost to the latency
        # window; the price is conflicts between overlapping decisions.
        assert pipelined.average_jct < blocking.average_jct
        assert pipelined.num_stale_placements > 0

    def test_pipelined_completes_all_jobs(self, applications):
        metrics = run_async(
            FcfsScheduler(),
            AsyncConfig(latency=2.0, pipelined=True, max_in_flight=4),
            applications,
        )
        assert len(metrics.job_completion_times) == SPEC.num_jobs

    def test_preemptive_scheduler_under_latency(self, priors, applications):
        metrics = run_async(
            PreemptiveSrtfScheduler(priors=priors),
            AsyncConfig(latency=1.0, pipelined=True, max_in_flight=2),
            applications,
        )
        assert len(metrics.job_completion_times) == SPEC.num_jobs


# --------------------------------------------------------------------------- #
# Conflict resolution against fabricated stale decisions
# --------------------------------------------------------------------------- #
class TestConflictResolution:
    def _engine_with_context(self, applications, snapshot_policy="cow"):
        jobs = generate_workload(SPEC, applications=applications)
        engine = SimulationEngine(
            jobs,
            FcfsScheduler(),
            cluster=Cluster(CLUSTER),
            config=SimulationConfig(snapshot_policy=snapshot_policy),
            async_backend=AsyncSchedulerBackend(AsyncConfig(latency=1.0)),
        )
        # Drive to the first instant with schedulable work.
        while not engine._active_jobs:
            assert engine.step()
        return engine

    def test_stale_preemption_is_noop(self, applications):
        engine = self._engine_with_context(applications)
        context = engine._build_context()
        snapshot = context.snapshot()
        victim = snapshot.schedulable_tasks()[0]  # PENDING, never ran
        from repro.simulator.async_sched import InFlightDecision

        inflight = InFlightDecision(
            requested_at=engine.current_time,
            apply_at=engine.current_time,
            decision=SchedulingDecision(
                preemptions=[PreemptionDirective(task=victim)]
            ),
        )
        engine._apply_async_decision(inflight)
        assert engine.metrics.num_stale_preemptions == 1
        assert engine.metrics.num_preemptions == 0

    def test_stale_placement_of_finished_job_is_dropped(self, applications):
        engine = self._engine_with_context(applications)
        snapshot = engine._build_context().snapshot()
        task = snapshot.schedulable_tasks()[0]
        # Simulate the job leaving the cluster between snapshot and apply.
        engine._active_jobs.pop(task.job_id)
        from repro.simulator.async_sched import InFlightDecision

        decision = SchedulingDecision.from_tasks([task])
        inflight = InFlightDecision(
            requested_at=engine.current_time,
            apply_at=engine.current_time,
            decision=decision,
            snapshot_free_regular=snapshot.free_regular_slots,
            snapshot_free_llm=snapshot.free_llm_slots,
        )
        engine._apply_async_decision(inflight)
        assert engine.metrics.num_stale_placements == 1

    def test_duplicate_entries_within_one_decision_not_metered(self, applications):
        engine = self._engine_with_context(applications)
        snapshot = engine._build_context().snapshot()
        task = snapshot.schedulable_tasks()[0]
        from repro.simulator.async_sched import InFlightDecision

        # The same task listed three times (allowed by the scheduler
        # contract): one placement, the repeats skipped silently — not
        # counted as stale placements, exactly like the sync path.
        inflight = InFlightDecision(
            requested_at=engine.current_time,
            apply_at=engine.current_time,
            decision=SchedulingDecision.from_tasks([task, task, task]),
            snapshot_free_regular=snapshot.free_regular_slots,
            snapshot_free_llm=snapshot.free_llm_slots,
        )
        engine._apply_async_decision(inflight)
        assert engine.metrics.num_stale_placements == 0
        assert engine.metrics.num_placement_conflicts == 0
        assert engine._resolve_live_task(task).state is TaskState.RUNNING

    def test_backends_from_one_config_draw_independent_latencies(self):
        config = AsyncConfig(latency=SampledLatency([0.1, 0.5, 2.0], seed=7))
        first = AsyncSchedulerBackend(config)
        second = AsyncSchedulerBackend(config)
        # Per-shard backends built from one shared config (the federated
        # factory pattern) must not share RNG state.
        assert first.model is not second.model
        context = SchedulingContext(time=0.0, jobs=[])
        draws = [first.model.latency(context) for _ in range(10)]
        assert draws == [second.model.latency(context) for _ in range(10)]

    def test_resolve_live_task_maps_snapshot_copies(self, applications):
        # Deep-copy oracle: every snapshot task is a copy, and resolution
        # maps it back onto the right live identity.
        engine = self._engine_with_context(applications, snapshot_policy="deepcopy")
        snapshot = engine._build_context().snapshot()
        for task in snapshot.schedulable_tasks():
            live = engine._resolve_live_task(task)
            assert live is not None
            assert live is not task  # a copy was mapped back ...
            assert live.key() == task.key()  # ... onto the right identity
            assert live.state is TaskState.PENDING

    def test_resolve_live_task_on_cow_snapshot(self, applications):
        # COW view: jobs untouched since the snapshot share live objects, so
        # resolution is the identity — until the engine mutates the job, at
        # which point the snapshot keeps a private clone and resolution maps
        # the clone's tasks back by key exactly like the deep-copy path.
        engine = self._engine_with_context(applications, snapshot_policy="cow")
        snapshot = engine._build_context().snapshot()
        tasks_before = snapshot.schedulable_tasks()
        assert tasks_before
        for task in tasks_before:
            live = engine._resolve_live_task(task)
            assert live is task  # unmutated job: the view shares live objects
        # Mutate the live world while the snapshot is alive: placed tasks'
        # jobs get copied out, so re-reading the snapshot yields clones that
        # still resolve to the correct live identities.
        for _ in range(5):
            if not engine.step():
                break
        for task in snapshot.schedulable_tasks():
            live = engine._resolve_live_task(task)
            if live is None:
                continue  # job finished and left the cluster: stale by design
            assert live.key() == task.key()


# --------------------------------------------------------------------------- #
# Open-loop and federated integration
# --------------------------------------------------------------------------- #
class TestFederatedAsync:
    CLUSTER = ClusterConfig(num_regular_executors=2, num_llm_executors=1, max_batch_size=4)

    def _stream(self):
        return open_loop_jobs(PoissonProcess(rate=2.0, seed=5), seed=5, max_jobs=60)

    def test_per_shard_backends(self):
        fleet = FederatedCluster(
            [(f"s{i}", Cluster(self.CLUSTER)) for i in range(2)],
            router=LeastLoadedRouter(),
        )
        engine = FederatedSimulationEngine(
            self._stream(),
            FcfsScheduler,
            fleet,
            async_backend_factory=lambda: AsyncSchedulerBackend(AsyncConfig(latency=1.0)),
        )
        metrics = engine.run()
        assert len(metrics.job_completion_times) == 60
        assert sum(m.num_async_decisions for m in metrics.shards.values()) > 0

    def test_async_one_shard_latency_zero_identity(self):
        single = SimulationEngine(
            self._stream(), FcfsScheduler(), cluster=Cluster(self.CLUSTER)
        ).run()
        fleet = FederatedCluster([("s0", Cluster(self.CLUSTER))])
        federated = FederatedSimulationEngine(
            self._stream(),
            FcfsScheduler,
            fleet,
            async_backend_factory=lambda: AsyncSchedulerBackend(AsyncConfig(latency=0.0)),
        ).run()
        assert federated.job_completion_times == single.job_completion_times

    def _run_sampled_fleet(self, num_shards=2):
        config = AsyncConfig(latency=SampledLatency([0.1, 0.4, 1.5], seed=13))
        fleet = FederatedCluster(
            [(f"s{i}", Cluster(self.CLUSTER)) for i in range(num_shards)],
            router=LeastLoadedRouter(),
        )
        engine = FederatedSimulationEngine(
            self._stream(),
            FcfsScheduler,
            fleet,
            async_backend_factory=lambda: AsyncSchedulerBackend(config),
        )
        metrics = engine.run()
        backends = [shard.engine.async_backend for shard in engine.federation.shards]
        return metrics, backends

    def test_sampled_latency_shards_do_not_share_rng_state(self):
        # The factory hands every shard the *same* AsyncConfig; each backend
        # must still own a private SampledLatency (private RNG): shared
        # state would make shard latencies depend on the order in which the
        # other shards happened to draw, breaking shard-count determinism.
        _, backends = self._run_sampled_fleet()
        models = [backend.model for backend in backends]
        assert len({id(model) for model in models}) == len(models)
        rngs = [model._rng for model in models]
        assert len({id(rng) for rng in rngs}) == len(rngs)

    def test_sampled_latency_federated_rerun_is_bit_identical(self):
        first, _ = self._run_sampled_fleet()
        second, _ = self._run_sampled_fleet()
        assert first.job_completion_times == second.job_completion_times
        assert first.makespan == second.makespan
        assert {name: m.num_async_decisions for name, m in first.shards.items()} == {
            name: m.num_async_decisions for name, m in second.shards.items()
        }


class TestStaleViewRouting:
    CLUSTER = ClusterConfig(num_regular_executors=2, num_llm_executors=1, max_batch_size=4)

    def _stream(self):
        return open_loop_jobs(PoissonProcess(rate=2.0, seed=5), seed=5, max_jobs=80)

    def _run(self, router):
        fleet = FederatedCluster(
            [(f"s{i}", Cluster(self.CLUSTER)) for i in range(3)], router=router
        )
        return FederatedSimulationEngine(self._stream(), FcfsScheduler, fleet).run()

    def test_factory(self):
        router = create_job_router("stale_least_loaded", view_refresh_interval=60.0)
        assert isinstance(router, StaleLeastLoadedRouter)
        assert router.view_refresh_interval == 60.0
        with pytest.raises(ValueError):
            StaleLeastLoadedRouter(view_refresh_interval=-1.0)

    def test_zero_interval_matches_fresh_least_loaded(self):
        fresh = self._run(LeastLoadedRouter())
        always = self._run(StaleLeastLoadedRouter(view_refresh_interval=0.0))
        assert always.job_completion_times == fresh.job_completion_times

    def test_staleness_hurts_monotonically(self):
        jcts = [
            self._run(StaleLeastLoadedRouter(view_refresh_interval=iv)).average_jct
            for iv in (0.0, 30.0, 120.0)
        ]
        assert jcts == sorted(jcts)
        assert jcts[-1] > jcts[0]

    def test_router_reset_between_runs(self):
        router = StaleLeastLoadedRouter(view_refresh_interval=1e9)
        first = self._run(router)
        # Reused router must not carry the stale t=0 view into a new run
        # (the engine resets it); two runs are identical.
        second = self._run(router)
        assert first.job_completion_times == second.job_completion_times
