"""slo_serving's SLO terms memo, checked against fresh pricing.

``SloServingScheduler`` prices each request once: its TTFT deadline, its
job's arrival time and its TPOT batch cap live in one memo keyed by task
``uid``.  Two oracles run after every ``schedule`` call:

* every memo entry equals a fresh ``(_deadline, arrival, _batch_cap)`` for
  its task, computed on the same context;
* the decision equals that of a fresh scheduler with the same kwargs and
  an empty memo, on the same context (preference lists and preemption
  directives, compared by task key).

They run on the committed serving spec (synchronous), on pipelined async
decisions under both snapshot policies, and on a 2-shard fleet with
migration.  After each run the memo must hold nothing, except, in the
fleet, entries of jobs that migrated off that shard.

The last test guards the memo's other contract: it holds floats only.  A
memo that kept a snapshot alive would make the engine copy every job it
mutates while a pipelined decision is in flight.
"""

import json
import math
from pathlib import Path

import pytest

from repro import api
from repro.api.spec import with_overrides
from repro.dag.job import Job
from repro.schedulers.base import SchedulingContext
from repro.schedulers.slo import SloServingScheduler
from repro.simulator.async_sched import AsyncConfig, AsyncSchedulerBackend
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    JobRouter,
    MigrationConfig,
)
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload
from repro.workloads.serving import attach_token_model
from tests.test_schedulers_slo import TARGETS, make_llm_job, token_task

SERVING_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "serving_slo_chat.json"


def serving_spec(**overrides):
    spec = api.ScenarioSpec.from_dict(json.loads(SERVING_SPEC.read_text()))
    return with_overrides(spec, overrides)


def all_tasks(jobs):
    return [task for job in jobs for stage in job.stages.values() for task in stage.tasks]


def fresh_twin(scheduler):
    """A scheduler with ``scheduler``'s kwargs and an empty memo."""
    return SloServingScheduler(
        slo_targets=scheduler._targets,
        latency_slope=scheduler._slope,
        slack_margin=scheduler._slack_margin,
        max_preemptions_per_event=scheduler._max_preemptions,
        min_victim_remaining=scheduler._min_victim_remaining,
    )


def decision_keys(decision):
    return (
        [task.key() for task in decision.regular_tasks],
        [task.key() for task in decision.llm_tasks],
        [(d.task.key(), d.checkpoint) for d in decision.preemptions],
    )


class MemoOracle:
    """Wraps ``SloServingScheduler.schedule`` and checks every call."""

    def __init__(self, monkeypatch):
        self.schedulers = []  # every instance checked, in first-call order
        self.calls = 0
        self.entries_checked = 0
        self.preemptions = 0
        #: id(scheduler) -> uids of entries whose task a call's context lacked.
        self.absent = {}
        schedule = SloServingScheduler.schedule

        def checked(scheduler, context):
            decision = schedule(scheduler, context)
            self.check(scheduler, context, decision)
            assert decision_keys(decision) == decision_keys(
                schedule(fresh_twin(scheduler), context)
            )
            return decision

        monkeypatch.setattr(SloServingScheduler, "schedule", checked)

    def check(self, scheduler, context, decision):
        if not any(seen is scheduler for seen in self.schedulers):
            self.schedulers.append(scheduler)
        self.calls += 1
        self.preemptions += len(decision.preemptions)
        tasks = {task.uid: task for task in all_tasks(context.jobs)}
        for uid, terms in scheduler._memo.items():
            task = tasks.get(uid)
            if task is None:
                self.absent.setdefault(id(scheduler), set()).add(uid)
                continue
            assert task.ready_time is not None
            assert terms == (
                scheduler._deadline(context, task),
                context.job_of(task).arrival_time,
                scheduler._batch_cap(context, task),
            ), task.key()
            self.entries_checked += 1


class TestMemoOracle:
    def test_synchronous_serving_spec(self, monkeypatch):
        oracle = MemoOracle(monkeypatch)
        result = api.run(serving_spec())
        assert len(result.metrics.job_completion_times) == 16
        assert oracle.entries_checked > oracle.calls > 0
        assert oracle.absent == {}
        assert [s._memo for s in oracle.schedulers] == [{}]

    @pytest.mark.parametrize("snapshot_policy", ["cow", "deepcopy"])
    def test_pipelined_async(self, monkeypatch, snapshot_policy):
        oracle = MemoOracle(monkeypatch)
        jobs = generate_workload(
            WorkloadSpec(WorkloadType.MIXED, num_jobs=25, arrival_rate=1.2, seed=11)
        )
        attach_token_model(jobs, "agentic", seed=2)
        # A wide slack margin makes blocked requests preempt.
        scheduler = SloServingScheduler(slo_targets=TARGETS, slack_margin=4.0)
        metrics = SimulationEngine(
            jobs,
            scheduler,
            cluster=Cluster(
                ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)
            ),
            config=SimulationConfig(snapshot_policy=snapshot_policy),
            async_backend=AsyncSchedulerBackend(
                AsyncConfig(latency=1.0, pipelined=True, max_in_flight=4)
            ),
        ).run()
        assert len(metrics.job_completion_times) == 25
        assert metrics.num_async_decisions > 0 and metrics.num_stale_placements > 0
        assert oracle.entries_checked > oracle.calls > 0
        assert oracle.preemptions > 0 and metrics.num_preemptions > 0
        assert oracle.absent == {}
        assert scheduler._memo == {}

    def test_fleet_with_migration(self, monkeypatch):
        class Alternating(JobRouter):
            """Floods one shard, then the other, so migrations run both ways."""

            name = "alternating"

            def select_shard(self, shards, job):
                return int(job.arrival_time // 8.0) % 2

        moved = {}  # shard name -> ids of jobs that left it
        migrate = FederatedSimulationEngine._migrate_job

        def recording(engine, job, source, target, now):
            migrated = migrate(engine, job, source, target, now)
            if migrated:
                moved.setdefault(source.name, set()).add(job.job_id)
            return migrated

        monkeypatch.setattr(FederatedSimulationEngine, "_migrate_job", recording)
        oracle = MemoOracle(monkeypatch)
        jobs = generate_workload(
            WorkloadSpec(WorkloadType.MIXED, num_jobs=60, arrival_rate=3.0, seed=5)
        )
        attach_token_model(jobs, "chat", seed=3)
        small = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)
        engine = FederatedSimulationEngine(
            jobs,
            lambda: SloServingScheduler(slo_targets=TARGETS),
            FederatedCluster(
                [("s0", Cluster(small)), ("s1", Cluster(small))], router=Alternating()
            ),
            migration=MigrationConfig(
                interval=2.0, imbalance_threshold=0.1, max_migrations_per_check=3
            ),
        )
        assert len(engine.run().job_completion_times) == 60
        assert oracle.entries_checked > oracle.calls > 0
        job_of_uid = {task.uid: job.job_id for job in jobs for task in all_tasks([job])}
        kept = 0
        for shard in engine.shards:
            scheduler = shard.engine.scheduler
            left = moved.get(shard.name, set())
            assert {job_of_uid[uid] for uid in scheduler._memo} <= left
            assert {job_of_uid[uid] for uid in oracle.absent.get(id(scheduler), ())} <= left
            kept += len(scheduler._memo)
        assert kept > 0  # the bound the docstring states is reached, not only allowed


class TestWhatTheMemoKeeps:
    def test_unready_and_jobless_tasks_are_priced_per_call(self):
        scheduler = SloServingScheduler(slo_targets=TARGETS)
        job = make_llm_job("j0", arrival=1.0)
        task = token_task(job)
        task.ready_time = None
        early = SchedulingContext(time=3.0, jobs=[job])
        # No ready_time: the deadline anchors on the call's clock.
        assert scheduler._terms(early, task)[:2] == (11.0, 1.0)
        assert scheduler._terms(SchedulingContext(time=5.0, jobs=[job]), task)[0] == 13.0
        # A job the context does not hold: default tier, sorts last.
        jobless = SchedulingContext(time=3.0, jobs=[])
        task.ready_time = 2.0
        assert scheduler._terms(jobless, task) == (
            scheduler._deadline(jobless, task),
            math.inf,
            scheduler._batch_cap(jobless, task),
        )
        assert scheduler._memo == {}
        # Ready, with its job: kept, and dropped when the job completes.
        assert scheduler._terms(early, task) == (10.0, 1.0, scheduler._batch_cap(early, task))
        assert list(scheduler._memo) == [task.uid]
        scheduler.on_job_complete(job, 12.0)
        assert scheduler._memo == {}


def serving_async_spec(seed, token_mix):
    """A small copy of the repository benchmark's serving_async workload."""
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("slo_serving"),
        workload=api.WorkloadSection.closed_loop(
            "mixed", num_jobs=30, arrival_rate=0.9, seed=seed, token_mix=token_mix
        ),
        cluster=api.ClusterSection(
            config=ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=8)
        ),
        async_=api.AsyncSection(kind="fixed", latency=1.0, pipelined=True, max_in_flight=4),
    )


@pytest.mark.parametrize("seed, token_mix", [(1, "agentic"), (2, "chat")])
def test_pipelined_dispatch_leaves_no_live_snapshot(monkeypatch, seed, token_mix):
    """After every dispatch no COW snapshot is alive, so no job is ever cloned.

    The decision in flight holds task objects, not the snapshot; anything
    that kept the snapshot (a memo holding a context, or a closure over
    one) would keep the tracker active and make the engine clone each job
    it mutates until the next dispatch.
    """
    dispatches = []
    dispatch = SimulationEngine._dispatch

    def checked(engine):
        dispatch(engine)
        assert engine._cow.num_live_snapshots() == 0
        dispatches.append(engine.current_time)

    def clone(job):
        raise AssertionError(f"job {job.job_id} was cloned for a live snapshot")

    monkeypatch.setattr(SimulationEngine, "_dispatch", checked)
    monkeypatch.setattr(Job, "snapshot_clone", clone)
    result = api.run(serving_async_spec(seed, token_mix))
    assert len(result.metrics.job_completion_times) == 30
    assert result.metrics.num_async_decisions > 0
    assert len(dispatches) > result.metrics.num_async_decisions
