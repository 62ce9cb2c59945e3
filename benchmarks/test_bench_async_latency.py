"""Decision-latency degradation benchmark: JCT vs charged decision latency.

Every registered scheduler replays the *identical* workload draw on the
identical (deliberately congested) cluster behind an
:class:`~repro.simulator.async_sched.AsyncSchedulerBackend`, sweeping the
charged decision latency through the declarative API
(:func:`repro.api.run` with an ``async`` section).  The curve quantifies
how much of each scheduler's paper-reported advantage survives realistic
control-plane delay; latency 0 in non-pipelined mode is asserted
**bit-identical** to the synchronous engine, so the curves are anchored at
today's golden numbers.  Asserts a monotone (non-decreasing, strictly
growing overall) degradation curve for at least 3 schedulers — the ISSUE 4
acceptance bar — and dumps everything into ``BENCH_4.json`` (CI artifact +
regression baseline), including per-run ``Result.to_dict()`` payloads so
the file shares one schema with the CLI and the regression gate.

Smoke mode (``BENCH_SCALE=smoke``) shrinks the job count for CI.
"""

import os

from bench_output import record_results
from conftest import BENCH_SETTINGS
from repro.api import (
    AsyncSection,
    ClusterSection,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
    run,
)
from repro.schedulers.registry import available_schedulers
from repro.simulator.cluster import ClusterConfig

SMOKE = os.environ.get("BENCH_SCALE") == "smoke"
NUM_JOBS = 30 if SMOKE else 80
LATENCIES = (0.0, 1.0, 2.0, 5.0)
MIN_MONOTONE_SCHEDULERS = 3
OUTPUT_FILE = "BENCH_4.json"

WORKLOAD = WorkloadSection.closed_loop("mixed", num_jobs=NUM_JOBS, arrival_rate=1.2, seed=7)
#: Small on purpose: decision latency only bites under contention.
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=4)

SCHEDULERS = available_schedulers()


def is_monotone_degradation(jcts):
    """Non-decreasing along the latency grid and strictly worse overall."""
    eps = 1e-9
    return all(b >= a - eps for a, b in zip(jcts, jcts[1:])) and jcts[-1] > jcts[0]


def test_bench_async_latency_degradation():
    def scenario(name, latency=None):
        return ScenarioSpec(
            scheduler=SchedulerSection(name),
            workload=WORKLOAD,
            cluster=ClusterSection(config=CLUSTER),
            async_=AsyncSection(latency=latency) if latency is not None else None,
            settings=BENCH_SETTINGS,
        )

    curves = {}
    monotone = []
    results = {}
    for name in SCHEDULERS:
        sync = run(scenario(name)).metrics
        jcts = []
        for latency in LATENCIES:
            result = run(scenario(name, latency=latency))
            metrics = result.metrics
            if latency == 0.0:
                # The async backend at latency 0 must be the synchronous
                # engine bit for bit, for every scheduler.
                assert metrics.job_completion_times == sync.job_completion_times, name
                assert metrics.makespan == sync.makespan, name
            jcts.append(metrics.average_jct)
            results[f"{name}@{latency:g}s"] = result
        curves[name] = jcts
        if is_monotone_degradation(jcts):
            monotone.append(name)

    print(f"\nasync decision-latency degradation ({NUM_JOBS} jobs, latencies {LATENCIES}):")
    for name, jcts in curves.items():
        curve = "  ".join(f"{j:8.2f}" for j in jcts)
        tag = "monotone" if name in monotone else "        "
        print(f"  {name:>12}  {curve}   x{jcts[-1] / jcts[0]:.2f}  {tag}")

    assert len(monotone) >= MIN_MONOTONE_SCHEDULERS, (
        f"only {monotone} degrade monotonically with decision latency "
        f"(need >= {MIN_MONOTONE_SCHEDULERS})"
    )

    record_results(
        "async_latency_degradation",
        results,
        filename=OUTPUT_FILE,
        extra={
            "num_jobs": NUM_JOBS,
            "latencies": list(LATENCIES),
            "average_jct_by_scheduler": {
                name: dict(zip(map(str, LATENCIES), jcts)) for name, jcts in curves.items()
            },
            "degradation_at_max_latency": {
                name: jcts[-1] / jcts[0] for name, jcts in curves.items()
            },
            "monotone_schedulers": monotone,
        },
    )
