"""Property-style engine invariants, parametrized over all registered schedulers.

Checked on every run:

* **Work conservation** — at the end of every scheduling point, no slot is
  left free while a schedulable task of the matching type exists.  (Not
  asserted for Decima, which by design commits capacity to the single
  highest-scoring stage per invocation and fills the rest on later events.)
* **Monotone clock** — simulation time never decreases across scheduling
  points.
* **Completion** — every admitted job eventually completes, exactly once.
* **Determinism** — two runs with the same seed produce bit-identical
  per-job JCTs and makespan.
"""

import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.dag.task import TaskType
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.latency import DecodingLatencyProfile
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)

SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=40, arrival_rate=1.5, seed=13)
CLUSTER = ClusterConfig(num_regular_executors=4, num_llm_executors=2, max_batch_size=4)

SCHEDULER_NAMES = available_schedulers()

#: Decima intentionally schedules one stage per invocation (see
#: DecimaScheduler.schedule), so the point-wise work-conservation property
#: does not apply to it.
WORK_CONSERVING = [name for name in SCHEDULER_NAMES if name != "decima"]


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


class InvariantCheckingEngine(SimulationEngine):
    """Asserts scheduling-point invariants while running."""

    def __init__(self, *args, check_work_conservation=True, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduling_point_times = []
        self.check_work_conservation = check_work_conservation

    def _dispatch(self):
        self.scheduling_point_times.append(self._time)
        super()._dispatch()
        if self.check_work_conservation:
            self._assert_work_conserving()

    def _assert_work_conserving(self):
        pending = [
            task
            for job in self._active_jobs.values()
            for task in job.schedulable_tasks()
        ]
        if self.cluster.free_regular_slots() > 0:
            stranded = [t for t in pending if t.task_type is TaskType.REGULAR]
            assert not stranded, (
                f"t={self._time:.3f}: {self.cluster.free_regular_slots()} regular slots idle "
                f"with {len(stranded)} schedulable regular tasks"
            )
        if self.cluster.free_llm_slots() > 0:
            stranded = [t for t in pending if t.task_type is TaskType.LLM]
            assert not stranded, (
                f"t={self._time:.3f}: {self.cluster.free_llm_slots()} LLM slots idle "
                f"with {len(stranded)} schedulable LLM tasks"
            )


def run_checked(name, priors, profiler, applications):
    jobs = generate_workload(SPEC, applications=applications)
    engine = InvariantCheckingEngine(
        jobs,
        make_scheduler(name, priors, profiler),
        cluster=Cluster(CLUSTER),
        workload_name=SPEC.workload_type.value,
        check_work_conservation=name in WORK_CONSERVING,
    )
    metrics = engine.run()
    return engine, metrics


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
class TestEngineInvariants:
    def test_work_conservation_and_monotone_clock(self, name, priors, profiler, applications):
        engine, _ = run_checked(name, priors, profiler, applications)
        times = engine.scheduling_point_times
        assert times, "engine never reached a scheduling point"
        assert all(a <= b for a, b in zip(times, times[1:], strict=False)), "clock moved backwards"

    def test_every_admitted_job_completes(self, name, priors, profiler, applications):
        _, metrics = run_checked(name, priors, profiler, applications)
        assert len(metrics.job_completion_times) == SPEC.num_jobs
        assert all(jct >= 0 for jct in metrics.job_completion_times.values())

    def test_bit_identical_reruns(self, name, priors, profiler, applications):
        _, first = run_checked(name, priors, profiler, applications)
        _, second = run_checked(name, priors, profiler, applications)
        # Exact equality on purpose: the engine must be deterministic down to
        # the last bit for golden traces to be meaningful.
        assert first.job_completion_times == second.job_completion_times
        assert first.makespan == second.makespan
        assert first.num_tasks_executed == second.num_tasks_executed
