"""Stepping both engines, and the engine's shared preemption guard.

``step()`` until ``False`` plus ``finalize()`` must equal ``run()`` on the
single-cluster and the federated engine.  ``preemptable(task)`` is the one
guard behind the engine's own preemptions and the fleet's migrations, so it
must predict exactly what ``preempt(task)`` does.
"""

import pytest

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.dag.task import TaskState, TaskType
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import FederatedCluster, FederatedSimulationEngine
from repro.simulator.pool import PoolSpec
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)

SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=12, arrival_rate=1.5, seed=3)
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)


@pytest.fixture(scope="module")
def applications():
    return default_applications()


def fresh_jobs(applications):
    # Jobs are mutable runtime objects; every engine needs its own draw.
    return generate_workload(SPEC, applications=applications)


def single_engine(applications):
    return SimulationEngine(
        fresh_jobs(applications), FcfsScheduler(), cluster=Cluster(CLUSTER)
    )


def federated_engine(applications):
    fleet = FederatedCluster([("s0", Cluster(CLUSTER)), ("s1", Cluster(CLUSTER))])
    return FederatedSimulationEngine(fresh_jobs(applications), FcfsScheduler, fleet)


class TestStepSemantics:
    """step()-until-False + finalize() must equal run() on both engines."""

    @pytest.mark.parametrize("factory", [single_engine, federated_engine])
    def test_manual_stepping_matches_run(self, factory, applications):
        ran = factory(applications).run()
        stepped_engine = factory(applications)
        steps = 0
        while stepped_engine.step():
            steps += 1
        stepped = stepped_engine.finalize()
        assert steps > 0
        assert stepped.job_completion_times == ran.job_completion_times
        assert stepped.makespan == ran.makespan

    @pytest.mark.parametrize("factory", [single_engine, federated_engine])
    def test_step_false_after_drain(self, factory, applications):
        engine = factory(applications)
        while engine.step():
            pass
        # Once drained, further steps are no-ops returning False.
        assert engine.step() is False
        assert engine.step() is False

    @pytest.mark.parametrize("factory", [single_engine, federated_engine])
    def test_clock_monotone_across_steps(self, factory, applications):
        engine = factory(applications)
        last = engine.current_time
        while engine.step():
            assert engine.current_time >= last
            last = engine.current_time


EPS = SimulationConfig().eps

#: case -> (clock, job whose task is the victim, drain the cpu pool, preemptable)
GUARD_CASES = {
    "regular_mid_run": (4.0, "reg", False, True),
    "regular_completing_now": (10.0 - EPS / 2, "reg", False, False),
    "llm_within_eps_of_done": (5.0 - EPS / 2, "llm", False, False),
    "draining_executor": (4.0, "reg", True, False),
}


def one_task_job(job_id, stage_type, work):
    job = Job(job_id, "app", 0.0)
    job.add_stage(Stage(StageSpec("s", stage_type), job_id, [work]))
    job.finalize()
    return job


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_preemptable_predicts_preempt(case):
    clock, victim, drain, expected = GUARD_CASES[case]
    # A 10 s regular task and a 5 s LLM task (batch of one runs at rate 1),
    # both placed by the first scheduling pass at t=0.
    cluster = Cluster(
        pools=[
            PoolSpec("cpu", TaskType.REGULAR, 1, min_executors=0),
            PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=2),
        ]
    )
    jobs = [
        one_task_job("reg", StageType.REGULAR, 10.0),
        one_task_job("llm", StageType.LLM, 5.0),
    ]
    engine = SimulationEngine(jobs, FcfsScheduler(), cluster=cluster)
    assert engine.schedule_pass() == pytest.approx(5.0)
    task = {job.job_id: job.stage("s").tasks[0] for job in jobs}[victim]
    assert task.state is TaskState.RUNNING
    if drain:
        cluster.pool("cpu").scale_down(1)  # the busy executor drains
    engine.sync_clock(clock)

    assert engine.preemptable(task) is expected
    assert engine.preempt(task) is expected
    assert task.state is (TaskState.PENDING if expected else TaskState.RUNNING)
    assert engine.metrics.num_preemptions == int(expected)
