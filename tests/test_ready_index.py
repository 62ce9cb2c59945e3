"""The engine-kept ready index, the FCFS walk that reads it, and the live
running set.

Four oracles:

* ``ready_jobs_of`` over an engine's active jobs is what its
  :class:`ReadyIndex` must hold after every step, across the feature
  matrix (closed and open loop, multi-pool placement, preemption,
  autoscaling, pipelined async decisions, prefill/decode serving and a
  migrating fleet).
* A rescan of each active job is what its kept DAG state must equal after
  every step of the same runs: each stage's pending tasks (same objects,
  same order), the incomplete-stage count and a warm schedulable-stage
  cache.
* The pre-index FCFS order (jobs by arrival, stages by depth) is what a
  snapshot-mode FCFS decision must list, and a live decision must be its
  prefix, cut at the context's free slots.
* The job walk of a bare context is what a preemptive scheduler's live
  context must list as its running set after every step (same objects,
  same order), and what its snapshot must list, by key, from its own jobs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.job import Job
from repro.dag.stage import StageState
from repro.dag.task import TaskState, TaskType
from repro.schedulers.base import SchedulingContext
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.ready import ReadyIndex, ready_jobs_of
from repro.schedulers.slo import SloServingScheduler
from repro.simulator.async_sched import AsyncConfig, AsyncSchedulerBackend
from repro.simulator.autoscaler import AutoscalerConfig, ThresholdAutoscaler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    HashRouter,
    MigrationConfig,
)
from repro.simulator.placement import PoolAffinityPlacement, create_placement_policy
from repro.simulator.pool import PoolSpec
from repro.simulator.reference import ReferenceSimulationEngine
from repro.utils.rng import make_rng
from repro.workloads.arrivals import BurstyProcess, DiurnalProcess, PoissonProcess, open_loop_jobs
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)
from repro.workloads.serving import attach_token_model

SMALL = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)


def mixed_jobs(num_jobs=30, seed=13):
    spec = WorkloadSpec(WorkloadType.MIXED, num_jobs=num_jobs, arrival_rate=1.5, seed=seed)
    return generate_workload(spec)


def poisson_stream(max_jobs=60, rate=3.0, seed=5):
    return open_loop_jobs(PoissonProcess(rate=rate, seed=seed), seed=seed, max_jobs=max_jobs)


def assert_index_matches(engine):
    """The index holds exactly ready_jobs_of(active jobs), same objects, same order."""
    for task_type in TaskType:
        indexed = list(engine._ready.jobs(task_type))
        expected = ready_jobs_of(engine._active_jobs.values(), task_type)
        assert [j.job_id for j in indexed] == [j.job_id for j in expected], task_type
        assert all(a is b for a, b in zip(indexed, expected, strict=True))


def walk(jobs):
    """The running set as a bare context's job walk lists it (the oracle)."""
    return SchedulingContext(time=0.0, jobs=list(jobs)).running_tasks()


def key_tuples(tasks):
    return [(t.job_id, t.stage_id, t.index) for t in tasks]


def assert_running_matches(engine):
    """A live preemptive context lists the walk's running tasks, same objects,
    same order; its snapshot lists the same keys, resolved in its own jobs."""
    context = engine._build_context()
    assert context._running is not None
    expected = walk(context.jobs)
    live = context.running_tasks()
    assert live is not context._running  # a copy: callers may not corrupt it
    assert all(a is b for a, b in zip(live, expected, strict=True))
    snapshot = context.snapshot()
    assert snapshot._running_keys == key_tuples(expected)
    frozen = snapshot.running_tasks()
    assert all(a is b for a, b in zip(frozen, walk(snapshot.jobs), strict=True))
    return live


def assert_job_state_matches(job):
    """The job's kept DAG state equals a rescan: every stage's pending list
    (same objects, same order, each task pointing back at its stage), the
    incomplete-stage count, and the schedulable-stage cache when it is warm."""
    stages = list(job.stages.values())
    for stage in stages:
        scanned = [t for t in stage.tasks if t.state is TaskState.PENDING]
        kept = stage.pending_tasks()
        assert key_tuples(kept) == key_tuples(scanned), stage
        assert all(a is b for a, b in zip(kept, scanned, strict=True))
        assert all(t._stage is stage for t in stage.tasks), stage
    assert job._incomplete == sum(not s.is_complete for s in stages), job
    cache = job._sched_cache
    if cache is not None:
        fresh = [
            s
            for s in stages
            if s.visible
            and s.state in (StageState.READY, StageState.RUNNING)
            and any(t.state is TaskState.PENDING for t in s.tasks)
        ]
        assert [s.stage_id for s in cache] == [s.stage_id for s in fresh], job
        assert all(a is b for a, b in zip(cache, fresh, strict=True))


def assert_dag_state_matches(engine):
    """Every active job's kept DAG state equals a rescan."""
    for job in engine._active_jobs.values():
        assert_job_state_matches(job)


def assert_engine_matches(engine):
    assert_index_matches(engine)
    assert_dag_state_matches(engine)
    if engine.scheduler.preemptive:
        assert_running_matches(engine)


def step_checked(engine, every=1):
    """Step ``engine`` to the end, checking it after every ``every`` steps.

    The ready index and the jobs' kept DAG state are always checked, and a
    preemptive scheduler's running set too.  Reading the index re-files the
    jobs touched since the last read, so a larger ``every`` checks changes
    that piled up over several steps.
    """
    assert_engine_matches(engine)
    context = engine._build_context()
    for task_type in TaskType:
        assert context.ready_jobs(task_type) is engine._ready.jobs(task_type)
    steps = 0
    while engine.step():
        steps += 1
        if steps % every == 0:
            assert_engine_matches(engine)
    metrics = engine.finalize()
    assert steps > 0
    assert engine.num_active_jobs == 0
    return metrics


# --------------------------------------------------------------------------- #
# ReadyIndex unit behaviour
# --------------------------------------------------------------------------- #
class TestReadyIndex:
    def test_files_by_arrival_then_id_and_drops_inactive(self):
        jobs = mixed_jobs(num_jobs=6)
        active = {job.job_id: job for job in jobs}
        index = ReadyIndex(active)
        for job in sorted(jobs, key=lambda j: -j.arrival_time):
            index.touch(job)
            index.touch(job)  # repeated touches re-file once
        for task_type in TaskType:
            assert list(index.jobs(task_type)) == ready_jobs_of(jobs, task_type)
        late = max(jobs, key=lambda j: j.arrival_time)
        del active[late.job_id]
        index.discard(late)
        index.discard(late)  # idempotent
        for task_type in TaskType:
            assert list(index.jobs(task_type)) == ready_jobs_of(active.values(), task_type)

    def test_touched_job_that_left_is_dropped_on_read(self):
        jobs = mixed_jobs(num_jobs=3)
        active = {job.job_id: job for job in jobs}
        index = ReadyIndex(active)
        for job in jobs:
            index.touch(job)
        assert index.jobs(TaskType.LLM) or index.jobs(TaskType.REGULAR)
        gone = jobs[0]
        index.touch(gone)
        del active[gone.job_id]
        for task_type in TaskType:
            assert gone not in index.jobs(task_type)

    def test_versions_move_at_every_touch_and_stamp_and_never_repeat(self):
        job = mixed_jobs(num_jobs=1)[0]
        active = {job.job_id: job}
        first, second = ReadyIndex(active), ReadyIndex(active)
        assert first.version(job) is None
        seen = []
        for index in (first, second, first):
            index.touch(job)
            seen.append(index.version(job))
            index.jobs(TaskType.LLM)
            index.stamp(job)  # a new version, but nothing to re-file
            assert not index._touched
            seen.append(index.version(job))
        assert len(set(seen)) == len(seen)
        first.discard(job)
        assert first.version(job) is None

    def test_context_without_index_derives_the_same_sequence(self):
        jobs = mixed_jobs(num_jobs=8)
        context = SchedulingContext(time=0.0, jobs=list(reversed(jobs)))
        for task_type in TaskType:
            assert list(context.ready_jobs(task_type)) == ready_jobs_of(jobs, task_type)
        assert all(context.job_version(job) is None for job in jobs)

    def test_snapshots_never_carry_the_live_index(self):
        engine = SimulationEngine(mixed_jobs(), FcfsScheduler(), cluster=Cluster(SMALL))
        while not engine._active_jobs:
            assert engine.step()
        context = engine._build_context()
        assert context._ready is engine._ready
        snapshot = context.snapshot()
        assert snapshot._ready is None
        for job in context.jobs:
            assert context.job_version(job) == engine._ready.version(job) is not None
            assert snapshot.job_version(job) is None


# --------------------------------------------------------------------------- #
# Oracle across the feature matrix
# --------------------------------------------------------------------------- #
def srtf_preempt():
    return PreemptiveSrtfScheduler(
        remaining_estimator=lambda job, context: job.true_remaining_work()
    )


def hetero_pools(roles=False):
    return [
        PoolSpec("cpu-a", TaskType.REGULAR, 2),
        PoolSpec("cpu-b", TaskType.REGULAR, 2, speed_factor=1.5),
        PoolSpec("gpu-a", TaskType.LLM, 1, max_batch_size=2, role="prefill" if roles else None),
        PoolSpec("gpu-b", TaskType.LLM, 1, max_batch_size=4, role="decode" if roles else None),
    ]


class TestIndexOracle:
    def test_closed_loop(self):
        metrics = step_checked(
            SimulationEngine(mixed_jobs(), FcfsScheduler(), cluster=Cluster(SMALL))
        )
        assert len(metrics.job_completion_times) == 30

    @pytest.mark.parametrize("every", [1, 7])
    def test_open_loop_stream(self, every):
        metrics = step_checked(
            SimulationEngine(poisson_stream(), FcfsScheduler(), cluster=Cluster(SMALL)), every
        )
        assert len(metrics.job_completion_times) == 60

    @pytest.mark.parametrize("policy", ["greedy", "best_fit", "prefill_decode", "affinity"])
    def test_multi_pool_placement(self, policy):
        if policy == "affinity":
            placement = PoolAffinityPlacement(lambda task: "gpu-b" if task.is_llm else "cpu-b")
        else:
            placement = create_placement_policy(policy)
        jobs = mixed_jobs()
        attach_token_model(jobs, "chat", seed=3)
        engine = SimulationEngine(
            jobs,
            FcfsScheduler(),
            cluster=Cluster(pools=hetero_pools(roles=policy == "prefill_decode")),
            placement=placement,
        )
        assert len(step_checked(engine).job_completion_times) == 30

    def test_srtf_preempt(self):
        stream = open_loop_jobs(
            BurstyProcess(
                base_rate=0.4,
                burst_rate=6.0,
                mean_normal_duration=80.0,
                mean_burst_duration=15.0,
                seed=21,
            ),
            seed=21,
            max_jobs=80,
        )
        cluster = Cluster(
            ClusterConfig(num_regular_executors=6, num_llm_executors=2, max_batch_size=4)
        )
        metrics = step_checked(SimulationEngine(stream, srtf_preempt(), cluster=cluster))
        assert metrics.num_preemptions > 0

    def test_autoscaler(self):
        stream = open_loop_jobs(
            DiurnalProcess(mean_rate=1.0, amplitude=0.9, period=600.0, seed=3),
            seed=3,
            max_jobs=60,
        )
        cluster = Cluster(
            pools=[
                PoolSpec("cpu", TaskType.REGULAR, 4, min_executors=2, max_executors=24),
                PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=4, max_executors=12),
            ]
        )
        autoscaler = ThresholdAutoscaler(
            AutoscalerConfig(
                interval=20.0, scale_up_occupancy=0.85, scale_down_occupancy=0.25, step=2
            )
        )
        engine = SimulationEngine(stream, FcfsScheduler(), cluster=cluster, autoscaler=autoscaler)
        assert step_checked(engine).scale_events

    @pytest.mark.parametrize("snapshot_policy", ["cow", "deepcopy"])
    def test_pipelined_async(self, snapshot_policy):
        backend = AsyncSchedulerBackend(AsyncConfig(latency=1.0, pipelined=True, max_in_flight=3))
        engine = SimulationEngine(
            poisson_stream(max_jobs=40),
            FcfsScheduler(),
            cluster=Cluster(SMALL),
            config=SimulationConfig(snapshot_policy=snapshot_policy),
            async_backend=backend,
        )
        metrics = step_checked(engine)
        assert metrics.num_async_decisions > 0

    def test_slo_serving_on_prefill_decode_pools(self):
        jobs = mixed_jobs(num_jobs=20, seed=7)
        attach_token_model(jobs, "chat", seed=3)
        cluster = Cluster(
            pools=[
                PoolSpec("cpu", TaskType.REGULAR, 3),
                PoolSpec("pre", TaskType.LLM, 1, max_batch_size=4, role="prefill"),
                PoolSpec("dec", TaskType.LLM, 1, max_batch_size=4, role="decode"),
            ]
        )
        engine = SimulationEngine(
            jobs,
            SloServingScheduler(),
            cluster=cluster,
            placement=create_placement_policy("prefill_decode"),
        )
        metrics = step_checked(engine)
        assert metrics.num_preemptions > 0  # prefill -> decode handoffs

    def test_federated_fleet_with_migration(self):
        class AllToZero(HashRouter):
            def select_shard(self, shards, job):
                return 0

        # One entry per migration: whether the moved job entered the target's index.
        moved = []

        class CheckedFleet(FederatedSimulationEngine):
            def _migrate_job(self, job, source, target, now):
                migrated = super()._migrate_job(job, source, target, now)
                if migrated:
                    for task_type in TaskType:
                        assert job not in source.engine._ready.jobs(task_type)
                        ready = bool(ready_jobs_of([job], task_type))
                        assert (job in target.engine._ready.jobs(task_type)) == ready
                    moved.append(
                        any(job in target.engine._ready.jobs(t) for t in TaskType)
                    )
                return migrated

        fleet = FederatedCluster(
            [("s0", Cluster(SMALL)), ("s1", Cluster(SMALL))], router=AllToZero()
        )
        engine = CheckedFleet(
            list(poisson_stream(max_jobs=40)),
            FcfsScheduler,
            fleet,
            migration=MigrationConfig(
                interval=5.0, imbalance_threshold=0.2, max_migrations_per_check=2
            ),
        )
        while engine.step():
            for shard in engine.shards:
                assert_engine_matches(shard.engine)
        metrics = engine.finalize()
        assert len(metrics.job_completion_times) == 40
        assert metrics.num_migrations == len(moved) > 0
        assert any(moved)  # some migrated job had ready work to re-index


# --------------------------------------------------------------------------- #
# The live running set (the bursty srtf_preempt stream and prefill/decode
# slo_serving run above, through step_checked)
# --------------------------------------------------------------------------- #
class TestRunningSet:
    def test_stage_position_is_the_insertion_index(self):
        for job in mixed_jobs(num_jobs=12):
            order = list(job.stages)
            early = job.snapshot_clone()  # cloned before the table exists
            for stage_id in order:
                assert job.stage_position(stage_id) == order.index(stage_id)
            late = job.snapshot_clone()
            assert late._positions is job._positions  # built once, shared
            for stage_id in order:
                assert early.stage_position(stage_id) == order.index(stage_id)
                assert late.stage_position(stage_id) == order.index(stage_id)

    def test_live_running_set_never_walks_the_jobs(self, monkeypatch):
        engine = SimulationEngine(poisson_stream(), srtf_preempt(), cluster=Cluster(SMALL))
        while not any(e.current_task for e in engine.cluster.regular_executors):
            assert engine.step()
        context = engine._build_context()
        expected = key_tuples(walk(context.jobs))
        snapshot = context.snapshot()

        def no_walk(job):
            raise AssertionError("running_tasks walked the jobs' stages")

        monkeypatch.setattr(Job, "unfinished_stages", no_walk)
        assert expected
        assert key_tuples(context.running_tasks()) == expected
        assert key_tuples(snapshot.running_tasks()) == expected

    def test_only_live_preemptive_contexts_carry_the_list(self):
        jobs = mixed_jobs(num_jobs=10)
        fcfs = SimulationEngine(jobs, FcfsScheduler(), cluster=Cluster(SMALL))
        for _ in range(15):
            assert fcfs.step()
        context = fcfs._build_context()
        assert walk(context.jobs)  # tasks run, and the context still walks for them
        assert context._running is None and context.snapshot()._running_keys is None
        seen = []

        class Recording(PreemptiveSrtfScheduler):
            def schedule(self, context):
                seen.append((context._running, key_tuples(context.running_tasks())))
                return super().schedule(context)

        reference = ReferenceSimulationEngine(
            mixed_jobs(num_jobs=10),
            Recording(remaining_estimator=lambda job, context: job.true_remaining_work()),
            cluster=Cluster(SMALL),
        )
        reference.run()
        assert any(running for _, running in seen)
        assert all(listed is None for listed, _ in seen)

    def test_srtf_preempt_on_autoscaled_pools_with_forced_drains(self):
        stream = open_loop_jobs(
            DiurnalProcess(mean_rate=1.5, amplitude=0.9, period=300.0, seed=3),
            seed=3,
            max_jobs=60,
        )
        cluster = Cluster(
            pools=[
                PoolSpec("cpu", TaskType.REGULAR, 4, min_executors=1, max_executors=12),
                PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=4, max_executors=6),
            ]
        )
        autoscaler = ThresholdAutoscaler(
            AutoscalerConfig(
                interval=20.0, scale_up_occupancy=0.85, scale_down_occupancy=0.25, step=2
            )
        )
        engine = SimulationEngine(stream, srtf_preempt(), cluster=cluster, autoscaler=autoscaler)
        # The autoscaler alone never leaves a task on a draining executor, so
        # every 25 steps a fully busy pool is made to drain one executor while
        # it runs: the task stays in the running set, as the walk finds it.
        drained_running = 0
        steps = 0
        while engine.step():
            steps += 1
            if steps % 25 == 0:
                for pool in (cluster.pool("cpu"), cluster.pool("gpu")):
                    active = [e for e in pool.executors if pool.is_active(e.executor_id)]
                    if all(not e.is_idle for e in active):
                        pool.scale_down(1)
            running = assert_running_matches(engine)
            inactive = cluster.inactive_executor_ids()
            drained_running += sum(t.executor_id in inactive for t in running)
            assert_index_matches(engine)
        metrics = engine.finalize()
        assert len(metrics.job_completion_times) == 60
        assert metrics.scale_events and metrics.num_preemptions > 0
        assert drained_running > 0

    @pytest.mark.parametrize("snapshot_policy", ["cow", "deepcopy"])
    def test_slo_serving_pipelined_async(self, snapshot_policy):
        jobs = mixed_jobs(num_jobs=20, seed=7)
        attach_token_model(jobs, "chat", seed=3)
        backend = AsyncSchedulerBackend(AsyncConfig(latency=1.0, pipelined=True, max_in_flight=3))
        engine = SimulationEngine(
            jobs,
            SloServingScheduler(),
            cluster=Cluster(SMALL),
            config=SimulationConfig(snapshot_policy=snapshot_policy),
            async_backend=backend,
        )
        metrics = step_checked(engine)
        assert metrics.num_async_decisions > 0
        assert len(metrics.job_completion_times) == 20

    def test_migrating_fleet_running_srtf_preempt(self):
        class AllToZero(HashRouter):
            def select_shard(self, shards, job):
                return 0

        fleet = FederatedCluster(
            [("s0", Cluster(SMALL)), ("s1", Cluster(SMALL))], router=AllToZero()
        )
        engine = FederatedSimulationEngine(
            list(poisson_stream(max_jobs=40)),
            srtf_preempt,
            fleet,
            migration=MigrationConfig(
                interval=5.0, imbalance_threshold=0.2, max_migrations_per_check=2
            ),
        )
        while engine.step():
            for shard in engine.shards:
                assert_engine_matches(shard.engine)
        metrics = engine.finalize()
        assert len(metrics.job_completion_times) == 40
        assert metrics.num_migrations > 0
        assert sum(shard.engine.metrics.num_preemptions for shard in engine.shards) > 0


# --------------------------------------------------------------------------- #
# FCFS: live decisions are prefixes of the snapshot-mode (pre-index) order
# --------------------------------------------------------------------------- #
APPLICATIONS = list(default_applications().values())


def partial_jobs(seed, num_jobs, steps):
    """Jobs of every application, driven into random partial states.

    Arrival times repeat so ties fall back to the job id, and the list
    order is shuffled so nothing relies on the context's job order.
    """
    rng = make_rng(seed)
    jobs = []
    for k in range(num_jobs):
        app = APPLICATIONS[int(rng.integers(len(APPLICATIONS)))]
        job = app.sample_job(f"j{int(rng.integers(1000))}-{k}", float(rng.integers(3)), rng)
        clock = job.arrival_time
        for _ in range(int(rng.integers(steps + 1))):
            running = [
                (stage, task) for stage in job.unfinished_stages()
                for task in stage.running_tasks()
            ]
            schedulable = job.schedulable_stages()
            if running and (not schedulable or rng.random() < 0.5):
                stage, task = running[int(rng.integers(len(running)))]
                if rng.random() < 0.25:
                    task.mark_preempted()
                else:
                    clock += 1.0
                    task.mark_finished(clock)
                    if stage.all_tasks_finished():
                        job.notify_stage_finished(stage.stage_id, clock)
            elif schedulable:
                stage = schedulable[int(rng.integers(len(schedulable)))]
                stage.mark_running()
                stage.pending_tasks()[0].mark_running(clock, "e")
            else:
                break
            job.invalidate_schedulable_cache()
        jobs.append(job)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def pre_index_order(jobs, task_type):
    """FCFS before the ready index: sort every job, flatten, keep one type."""
    tasks = []
    for job in sorted(jobs, key=lambda j: (j.arrival_time, j.job_id)):
        stages = sorted(
            job.schedulable_stages(), key=lambda s: (job.stage_depth(s.stage_id), s.stage_id)
        )
        for stage in stages:
            tasks.extend(t for t in stage.pending_tasks() if t.task_type is task_type)
    return tasks


class TestFcfsTruncation:
    @given(
        seed=st.integers(0, 2**16),
        num_jobs=st.integers(0, 12),
        steps=st.integers(0, 25),
        free_regular=st.integers(0, 12),
        free_llm=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_live_decision_is_a_prefix_of_the_snapshot_decision(
        self, seed, num_jobs, steps, free_regular, free_llm
    ):
        jobs = partial_jobs(seed, num_jobs, steps)
        slots = {"free_regular_slots": free_regular, "free_llm_slots": free_llm}
        snapshot = SchedulingContext(time=5.0, jobs=jobs, snapshot_time=5.0, **slots)
        bare = SchedulingContext(time=5.0, jobs=jobs, **slots)
        indexed = SchedulingContext(time=5.0, jobs=jobs, **slots)
        indexed._ready = ReadyIndex({job.job_id: job for job in jobs})
        for job in jobs:
            indexed._ready.touch(job)

        def keys(tasks):
            return [t.key() for t in tasks]

        full = FcfsScheduler().schedule(snapshot)
        for context in (bare, indexed):
            live = FcfsScheduler().schedule(context)
            for task_type, free, everything, cut in (
                (TaskType.REGULAR, free_regular, full.regular_tasks, live.regular_tasks),
                (TaskType.LLM, free_llm, full.llm_tasks, live.llm_tasks),
            ):
                assert keys(everything) == keys(pre_index_order(jobs, task_type))
                assert len(set(keys(everything))) == len(everything)
                assert keys(cut) == keys(everything[:free])
