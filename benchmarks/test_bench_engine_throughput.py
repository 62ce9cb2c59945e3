"""Engine-throughput benchmark: fast event core vs the seed engine.

Measures simulated events per second on a closed-loop 500-job workload and
asserts the indexed fast path is at least 3x faster than the seed
implementation (:class:`ReferenceSimulationEngine` driven with the seed
cost model, i.e. per-job structure caches disabled).  Also exercises the
open-loop path: a 1000-job Poisson stream must run to completion through
the generator API without the workload ever being materialized.

Smoke mode (``BENCH_SCALE=smoke``) shrinks the workloads for CI; the
speedup assertion is relaxed there because tiny runs are noise-dominated.
"""

import os
import time

from bench_output import record_bench_section
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.simulator.reference import ReferenceSimulationEngine
from repro.workloads.arrivals import PoissonProcess, open_loop_jobs
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, generate_workload

SMOKE = os.environ.get("BENCH_SCALE") == "smoke"
CLOSED_LOOP_JOBS = 100 if SMOKE else 500
OPEN_LOOP_JOBS = 200 if SMOKE else 1000
MIN_SPEEDUP = 1.5 if SMOKE else 3.0

CLUSTER = dict(num_regular_executors=16, num_llm_executors=6, max_batch_size=8)


def closed_loop_workload():
    spec = WorkloadSpec(
        workload_type=WorkloadType.MIXED,
        num_jobs=CLOSED_LOOP_JOBS,
        arrival_rate=2.0,
        seed=11,
    )
    return generate_workload(spec)


def timed_run(engine_cls, jobs, structure_caching=True):
    for job in jobs:
        job.set_structure_caching(structure_caching)
    engine = engine_cls(jobs, FcfsScheduler(), cluster=Cluster(ClusterConfig(**CLUSTER)))
    started = time.perf_counter()
    metrics = engine.run()
    elapsed = time.perf_counter() - started
    return metrics, elapsed


def test_bench_engine_throughput_vs_seed():
    # Seed cost model: reference event loop + uncached per-job structure.
    ref_metrics, ref_elapsed = timed_run(
        ReferenceSimulationEngine, closed_loop_workload(), structure_caching=False
    )
    fast_metrics, fast_elapsed = timed_run(SimulationEngine, closed_loop_workload())

    # Identical behavior is a precondition for a meaningful speedup claim.
    assert fast_metrics.job_completion_times == ref_metrics.job_completion_times
    assert fast_metrics.makespan == ref_metrics.makespan

    speedup = ref_elapsed / fast_elapsed
    fast_events_per_sec = fast_metrics.num_events / fast_elapsed
    ref_events_per_sec = ref_metrics.num_events / ref_elapsed
    print(
        f"\nengine throughput ({CLOSED_LOOP_JOBS} jobs closed-loop): "
        f"seed {ref_events_per_sec:,.0f} events/s ({ref_elapsed:.2f}s), "
        f"fast {fast_events_per_sec:,.0f} events/s ({fast_elapsed:.2f}s), "
        f"speedup {speedup:.2f}x"
    )
    record_bench_section(
        "engine_throughput",
        {
            "closed_loop_jobs": CLOSED_LOOP_JOBS,
            "seed_events_per_sec": ref_events_per_sec,
            "fast_events_per_sec": fast_events_per_sec,
            "seed_elapsed_sec": ref_elapsed,
            "fast_elapsed_sec": fast_elapsed,
            "speedup_vs_seed": speedup,
            "min_required_speedup": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fast engine is only {speedup:.2f}x faster than the seed engine "
        f"(required: {MIN_SPEEDUP}x)"
    )


def test_bench_open_loop_stream_completes_without_materialization():
    stream = open_loop_jobs(
        PoissonProcess(rate=3.0, seed=5), seed=5, max_jobs=OPEN_LOOP_JOBS
    )
    cluster = Cluster(
        ClusterConfig(num_regular_executors=24, num_llm_executors=8, max_batch_size=8)
    )
    engine = SimulationEngine(stream, FcfsScheduler(), cluster=cluster, workload_name="open_loop")

    peak_active = 0
    original_admit = engine._admit_arrivals

    def tracking_admit(now):
        nonlocal peak_active
        original_admit(now)
        peak_active = max(peak_active, engine.num_active_jobs)

    engine._admit_arrivals = tracking_admit

    started = time.perf_counter()
    metrics = engine.run()
    elapsed = time.perf_counter() - started

    print(
        f"\nopen-loop Poisson stream: {OPEN_LOOP_JOBS} jobs in {elapsed:.2f}s wall "
        f"({metrics.num_events / elapsed:,.0f} events/s), peak active jobs {peak_active}"
    )
    record_bench_section(
        "open_loop_stream",
        {
            "jobs": OPEN_LOOP_JOBS,
            "elapsed_sec": elapsed,
            "events_per_sec": metrics.num_events / elapsed,
            "peak_active_jobs": peak_active,
        },
    )
    assert len(metrics.job_completion_times) == OPEN_LOOP_JOBS
    assert engine.num_active_jobs == 0
    # The engine only ever held the in-flight jobs, not the whole stream.
    assert peak_active < OPEN_LOOP_JOBS / 2
