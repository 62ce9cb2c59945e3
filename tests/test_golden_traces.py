"""Golden-trace regression tests for the simulation engine.

Per registered scheduler, a small fixed workload is simulated and the
per-job JCTs and makespan are compared **exactly** (no tolerance) against a
recorded trace in ``tests/golden/``.  Any silent behavior drift in the
engine fast path — a reordered completion, a changed tie-break, a float
computed along a different path — shows up as a failed trace.

As a second line of defense, every trace is also recomputed with the
pre-refactor :class:`ReferenceSimulationEngine` and must match the fast
engine bit for bit.

Regenerate the traces (after an *intentional* behavior change) with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import available_schedulers, create_scheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.latency import DecodingLatencyProfile
from repro.simulator.reference import ReferenceSimulationEngine
from repro.workloads.mixtures import (
    WorkloadSpec,
    WorkloadType,
    default_applications,
    generate_workload,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

SPEC = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=20, arrival_rate=1.2, seed=7)
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)

SCHEDULER_NAMES = available_schedulers()


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


def run_trace(engine_cls, name, priors, profiler, applications):
    jobs = generate_workload(SPEC, applications=applications)
    engine = engine_cls(
        jobs,
        make_scheduler(name, priors, profiler),
        cluster=Cluster(CLUSTER),
        workload_name=SPEC.workload_type.value,
    )
    metrics = engine.run()
    return {
        "scheduler": name,
        "workload": {
            "type": SPEC.workload_type.value,
            "num_jobs": SPEC.num_jobs,
            "arrival_rate": SPEC.arrival_rate,
            "seed": SPEC.seed,
        },
        "jct": dict(sorted(metrics.job_completion_times.items())),
        "makespan": metrics.makespan,
        "num_tasks_executed": metrics.num_tasks_executed,
    }


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_golden_trace(name, priors, profiler, applications):
    trace = run_trace(SimulationEngine, name, priors, profiler, applications)
    golden_path = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"updated {golden_path}")
    assert golden_path.exists(), (
        f"missing golden trace {golden_path}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = json.loads(golden_path.read_text())
    # Exact comparison on purpose: JSON round-trips floats via repr, so any
    # difference here is a real behavior change, not serialization noise.
    assert trace["jct"] == golden["jct"]
    assert trace["makespan"] == golden["makespan"]
    assert trace["num_tasks_executed"] == golden["num_tasks_executed"]


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_fast_engine_matches_reference(name, priors, profiler, applications):
    fast = run_trace(SimulationEngine, name, priors, profiler, applications)
    reference = run_trace(ReferenceSimulationEngine, name, priors, profiler, applications)
    assert fast["jct"] == reference["jct"]
    assert fast["makespan"] == reference["makespan"]
    assert fast["num_tasks_executed"] == reference["num_tasks_executed"]
