"""Property-based tests: a context snapshot is immune to live mutations.

The asynchronous backend hands schedulers a frozen snapshot of the
:class:`~repro.schedulers.base.SchedulingContext`; whatever the live
simulation does during the decision's latency window — placing tasks,
finishing them, preempting, admitting arrivals — the pending decision's
view must not change.  Hypothesis drives randomized workloads through a
randomized number of engine steps between snapshot and check.

Two snapshot implementations are under test (``SimulationConfig.
snapshot_policy``): the copy-on-write default, whose job entries share
live objects until the engine mutates them, and the wholesale deep copy
kept as the golden oracle.  The immunity property must hold for both, and
the two must be *observationally identical* at every mutation step — that
equivalence property is the license to ship COW as the default.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)

APPLICATIONS = default_applications()
CLUSTER = ClusterConfig(num_regular_executors=2, num_llm_executors=1, max_batch_size=4)
POLICIES = ("cow", "deepcopy")
#: FCFS contexts walk the jobs for their running set (and never read it);
#: srtf_preempt contexts carry the engine's list and snapshot its keys.
SCHEDULERS = ("fcfs", "srtf_preempt")


def make_scheduler(name):
    if name == "fcfs":
        return FcfsScheduler()
    return PreemptiveSrtfScheduler(
        remaining_estimator=lambda job, context: job.true_remaining_work()
    )


def build_engine(seed, num_jobs, arrival_rate, snapshot_policy="cow", scheduler="fcfs"):
    spec = WorkloadSpec(
        workload_type=WorkloadType.MIXED,
        num_jobs=num_jobs,
        arrival_rate=arrival_rate,
        seed=seed,
    )
    jobs = generate_workload(spec, applications=APPLICATIONS)
    return SimulationEngine(
        jobs,
        make_scheduler(scheduler),
        cluster=Cluster(CLUSTER),
        config=SimulationConfig(snapshot_policy=snapshot_policy),
    )


def context_digest(context):
    """Everything a scheduler can observe, flattened to plain values."""
    digest = {
        "time": context.time,
        "free_regular": context.free_regular_slots,
        "free_llm": context.free_llm_slots,
        "batch_sizes": list(context.llm_batch_sizes),
        "running": [
            (t.key(), t.state.name, t.remaining_work) for t in context.running_tasks()
        ],
        "jobs": [],
    }
    for job in context.jobs:
        stages = {}
        for stage_id, stage in sorted(job.stages.items()):
            stages[stage_id] = {
                "state": stage.state.name,
                "visible": stage.visible,
                "pending": [t.key() for t in stage.pending_tasks()],
                "tasks": [
                    (t.key(), t.state.name, t.progress, t.remaining_work, t.executor_id)
                    for t in stage.tasks
                ],
            }
        digest["jobs"].append(
            {
                "job_id": job.job_id,
                "finished": job.is_finished,
                "schedulable": sorted(t.key() for t in job.schedulable_tasks()),
                "stages": stages,
            }
        )
    return digest


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_jobs=st.integers(min_value=2, max_value=8),
    arrival_rate=st.floats(min_value=0.5, max_value=4.0),
    warmup_steps=st.integers(min_value=1, max_value=12),
    mutation_steps=st.integers(min_value=1, max_value=40),
)
def test_snapshot_survives_live_mutations(
    policy, scheduler, seed, num_jobs, arrival_rate, warmup_steps, mutation_steps
):
    engine = build_engine(seed, num_jobs, arrival_rate, snapshot_policy=policy, scheduler=scheduler)
    for _ in range(warmup_steps):
        if not engine.step():
            break
    snapshot = engine._build_context().snapshot()
    assert snapshot.is_snapshot
    assert snapshot.snapshot_time == engine.current_time
    before = context_digest(snapshot)

    # Mutate the live world as hard as the simulation allows: every step
    # places tasks, accrues progress, finishes stages, admits arrivals.
    for _ in range(mutation_steps):
        if not engine.step():
            break

    assert context_digest(snapshot) == before


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_jobs=st.integers(min_value=2, max_value=8),
    arrival_rate=st.floats(min_value=0.5, max_value=4.0),
    warmup_steps=st.integers(min_value=1, max_value=12),
    mutation_steps=st.integers(min_value=1, max_value=30),
)
def test_cow_and_deepcopy_snapshots_observationally_identical(
    scheduler, seed, num_jobs, arrival_rate, warmup_steps, mutation_steps
):
    """The tentpole equivalence property: run the *same* deterministic
    simulation under both snapshot policies, snapshot both at the same
    point, then keep stepping both engines in lockstep — the two snapshots
    must agree observable-field-for-observable-field at every step, and the
    two live worlds must stay bit-identical (COW bookkeeping must not
    perturb the simulation itself)."""
    cow_engine = build_engine(seed, num_jobs, arrival_rate, "cow", scheduler)
    ref_engine = build_engine(seed, num_jobs, arrival_rate, "deepcopy", scheduler)
    for _ in range(warmup_steps):
        cow_alive = cow_engine.step()
        ref_alive = ref_engine.step()
        assert cow_alive == ref_alive
        if not cow_alive:
            break
    cow_snapshot = cow_engine._build_context().snapshot()
    ref_snapshot = ref_engine._build_context().snapshot()
    assert context_digest(cow_snapshot) == context_digest(ref_snapshot)

    frozen = context_digest(ref_snapshot)
    for _ in range(mutation_steps):
        cow_alive = cow_engine.step()
        ref_alive = ref_engine.step()
        assert cow_alive == ref_alive
        # Interleaved live mutation: after every step, both snapshots must
        # still show the frozen view, and the live engines must agree.
        assert context_digest(cow_snapshot) == frozen
        assert context_digest(ref_snapshot) == frozen
        assert context_digest(cow_engine._build_context()) == context_digest(
            ref_engine._build_context()
        )
        if not cow_alive:
            break


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_jobs=st.integers(min_value=2, max_value=6),
)
def test_mutating_snapshot_does_not_leak_into_live(seed, num_jobs):
    """Deep-copy oracle only: isolation holds in *both* directions, so even
    a scheduler that (illegally) scribbles on the snapshot cannot corrupt
    live state.  COW snapshots are one-directional read-only views — the
    scheduler contract forbids mutating the context either way."""
    engine = build_engine(seed, num_jobs, arrival_rate=2.0, snapshot_policy="deepcopy")
    while not engine._active_jobs:
        if not engine.step():
            return  # degenerate draw: every job completed on arrival
    live_before = context_digest(engine._build_context())
    snapshot = engine._build_context().snapshot()

    # Vandalize the snapshot: flip task state, burn progress, drop stages.
    for job in snapshot.jobs:
        for stage in job.stages.values():
            for task in stage.tasks:
                task.progress = task.work
                task.executor_id = "bogus"
        job.finish_time = -1.0

    assert context_digest(engine._build_context()) == live_before


@pytest.mark.parametrize("policy", POLICIES)
def test_snapshot_of_snapshot_raises(policy):
    """A snapshot is frozen at one instant; re-snapshotting it used to
    silently re-stamp ``snapshot_time`` (and re-deep-copy) — now it raises."""
    engine = build_engine(seed=1, num_jobs=3, arrival_rate=2.0, snapshot_policy=policy)
    while not engine._active_jobs:
        assert engine.step()
    first = engine._build_context().snapshot()
    with pytest.raises(RuntimeError, match="cannot snapshot a snapshot"):
        first.snapshot()


def test_pipelined_cow_snapshots_are_mutually_isolated():
    """Pipelined async mode keeps up to ``max_in_flight`` snapshots alive at
    once.  Each must freeze its own instant: materializing a job in one
    snapshot must never alias (or disturb) another snapshot's view."""
    engine = build_engine(seed=3, num_jobs=6, arrival_rate=3.0, snapshot_policy="cow")
    while len(engine._active_jobs) < 2:
        assert engine.step()
    first = engine._build_context().snapshot()
    first_digest = context_digest(first)

    # Advance the live world so the second snapshot freezes a later instant.
    for _ in range(3):
        if not engine.step():
            break
    second = engine._build_context().snapshot()
    second_digest = context_digest(second)

    for _ in range(10):
        if not engine.step():
            break

    assert context_digest(first) == first_digest
    assert context_digest(second) == second_digest
    # Materialized clones are private per snapshot: two snapshot views may
    # only share a job object while both still alias the *live* one (i.e.
    # the job was never mutated since the earlier snapshot was taken).
    live_jobs = {job.job_id: job for job in engine._active_jobs.values()}
    second_by_id = {job.job_id: job for job in second.jobs}
    for job in first.jobs:
        twin = second_by_id.get(job.job_id)
        if twin is not None and job is twin:
            assert live_jobs.get(job.job_id) is job


def test_cow_tracker_forgets_dead_snapshots():
    """Dropping a snapshot must drop its bookkeeping: once no snapshot is
    alive, mark-dirty is a no-op and the tracker holds no references."""
    engine = build_engine(seed=5, num_jobs=4, arrival_rate=2.0, snapshot_policy="cow")
    while not engine._active_jobs:
        assert engine.step()
    tracker = engine._cow
    assert tracker is not None and not tracker.active
    snapshot = engine._build_context().snapshot()
    assert tracker.active and tracker.num_live_snapshots() == 1
    del snapshot
    assert not tracker.active and tracker.num_live_snapshots() == 0
