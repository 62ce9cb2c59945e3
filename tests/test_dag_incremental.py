"""Incremental DAG state: the worklist settle equals the full pass.

``Job.notify_stage_finished`` settles a stage completion locally, visiting
only the finished stage, the stages it reveals and its successors, and
keeps a count of incomplete stages for the finish test.  With structure
caching off it runs the full pass (``Job.advance``) instead.  Twins of one
sampled job, one per mode, finish their stages in the same random valid
order; after every completion they must agree on every stage and task
state and on the job's finish, and each one's kept state must equal a
rescan (``assert_job_state_matches``) throughout.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageState, StageType
from repro.utils.rng import make_rng
from repro.workloads.mixtures import default_applications
from tests.test_ready_index import assert_job_state_matches

APPLICATIONS = default_applications()


def twins(name, seed):
    """One draw built twice: the worklist job and a full-pass job."""
    app = APPLICATIONS[name]
    draw = app.sample_draw(make_rng(seed))
    job = app.build_job("j", 0.0, draw)
    full = app.build_job("j", 0.0, draw)
    full.set_structure_caching(False)
    return job, full


def dag_state(job):
    """Every settle-visible value of ``job``, flattened to plain values."""
    return {
        "finish_time": job.finish_time,
        "incomplete": job._incomplete,
        "stages": {
            stage_id: (
                stage.state,
                stage.visible,
                stage.finish_time,
                [task.ready_time for task in stage.tasks],
                [task.index for task in stage.pending_tasks()],
            )
            for stage_id, stage in job.stages.items()
        },
    }


def runnable(job):
    """Ids of the stages the simulator could run now, in insertion order."""
    return [
        stage_id
        for stage_id, stage in job.stages.items()
        if stage.visible and stage.state in (StageState.READY, StageState.RUNNING)
    ]


def run_stage(job, stage_id, time, rnd):
    """Place every task of the stage, preempting some once, and finish them.

    The random choices come from ``rnd``'s state at the call, so twins
    driven from equal states see equal choices.
    """
    stage = job.stage(stage_id)
    stage.mark_running()
    tasks = list(stage.tasks)
    rnd.shuffle(tasks)
    for task in tasks:
        task.mark_running(time, "e0")
    for task in tasks:
        if rnd.random() < 0.3:
            task.mark_preempted(checkpoint=rnd.random() < 0.5)
            assert_job_state_matches(job)
            task.mark_running(time, "e1")
    for task in tasks:
        task.mark_finished(time)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(APPLICATIONS)),
    seed=st.integers(min_value=0, max_value=2**16),
    rnd=st.randoms(use_true_random=False),
)
def test_worklist_settle_equals_the_full_pass(name, seed, rnd):
    job, full = twins(name, seed)
    assert dag_state(job) == dag_state(full)
    assert_job_state_matches(job)
    time = 0.0
    while not job.is_finished:
        candidates = runnable(job)
        assert candidates == runnable(full)
        assert candidates, "an unfinished job must have a runnable stage"
        stage_id = rnd.choice(candidates)
        time += rnd.choice([0.0, 0.5, 1.25])
        state = rnd.getstate()
        run_stage(job, stage_id, time, rnd)
        rnd.setstate(state)
        run_stage(full, stage_id, time, rnd)

        changed = job.notify_stage_finished(stage_id, time)
        full_changed = full.notify_stage_finished(stage_id, time)
        assert set(changed) == set(full_changed)
        assert dag_state(job) == dag_state(full)
        assert_job_state_matches(job)
        assert_job_state_matches(full)
        for twin in (job, full):
            with pytest.raises(RuntimeError, match="already complete"):
                twin.notify_stage_finished(stage_id, time + 1.0)
        assert job.stage(stage_id).finish_time == time
    assert full.is_finished and job.finish_time == full.finish_time == time
    assert job._incomplete == full._incomplete == 0


def test_snapshot_clone_rebinds_the_pending_list():
    job = Job("j", "app", 0.0)
    job.add_stage(Stage(StageSpec("s", StageType.REGULAR), "j", [1.0, 2.0, 3.0]))
    job.finalize()
    stage = job.stage("s")
    first, second = stage.tasks[0], stage.tasks[1]
    first.mark_running(0.0, "e0")
    clone = job.snapshot_clone().stage("s")
    assert [t.index for t in clone.pending_tasks()] == [1, 2]
    assert all(t._stage is clone for t in clone.tasks)
    assert clone.pending_tasks() == stage.pending_tasks()  # equal by value ...
    assert not any(a is b for a in clone.pending_tasks() for b in stage.pending_tasks())
    second.mark_running(0.0, "e1")
    first.mark_preempted()
    # ... and the live stage's transitions leave the clone's list alone.
    assert [t.index for t in stage.pending_tasks()] == [0, 2]
    assert [t.index for t in clone.pending_tasks()] == [1, 2]
    assert_job_state_matches(job)
    # A deep copy gets its own back-references through the memo.
    deep = copy.deepcopy(job)
    assert_job_state_matches(deep)
    assert deep.stage("s").pending_tasks()[0] is deep.stage("s").tasks[0]
