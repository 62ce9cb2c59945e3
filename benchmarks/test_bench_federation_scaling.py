"""Federation scaling benchmark: aggregate event throughput vs shard count.

The same congested open-loop Poisson stream is pushed through fleets of
1, 2 and 4 shards built from the *identical total hardware* (the total
cluster config is split across shards by the declarative API's federated
cluster section), so the measurement isolates what sharding buys: each
shard's scheduling pass sees only its own active jobs.  Since the engine
keeps a ready index, the FCFS ranking no longer costs O(backlog) per
event, so most of what a shard's smaller backlog used to save is gone;
what remains is the per-event work that still walks every active job
(context build and the dispatch emptiness check).  The ratio therefore
measures leftovers, not a design goal: the test asserts only that the
4-shard fleet is not slower than the 1-shard fleet, and
``check_regression.py`` gates each shard count's ``events_per_sec``
against its calibrated baseline.  The curve is dumped into
``BENCH_3.json``.

Smoke mode (``BENCH_SCALE=smoke``) shrinks the stream for CI.
"""

import os
import time

from bench_output import record_bench_section
from repro.api import (
    ClusterSection,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
    run,
    split_cluster_config,
)
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    LeastLoadedRouter,
)
from repro.workloads.arrivals import PoissonProcess

SMOKE = os.environ.get("BENCH_SCALE") == "smoke"
STREAM_JOBS = 300 if SMOKE else 1500
ARRIVAL_RATE = 12.0
SHARD_COUNTS = (1, 2, 4)
OUTPUT_FILE = "BENCH_3.json"

#: Total fleet hardware, split evenly across the shard counts under test.
TOTAL_CLUSTER = ClusterConfig(num_regular_executors=16, num_llm_executors=8, max_batch_size=8)


def run_fleet(num_shards):
    """One fleet cell through the declarative front door.

    A 1-shard "fleet" runs through the federated engine directly (the spec
    API maps ``num_shards=1`` to the plain single engine, which would skew
    the throughput baseline of this scaling curve).
    """
    workload = WorkloadSection.open_loop(
        PoissonProcess(rate=ARRIVAL_RATE, seed=11),
        seed=11,
        max_jobs=STREAM_JOBS,
        name="open_loop_poisson",
    )
    if num_shards == 1:
        stream = workload.to_open_loop_spec().jobs(None)
        fleet = FederatedCluster(
            [("shard-0", Cluster(TOTAL_CLUSTER))], router=LeastLoadedRouter()
        )
        engine = FederatedSimulationEngine(
            stream, FcfsScheduler, fleet, workload_name="open_loop_poisson"
        )
        started = time.perf_counter()
        return engine.run(), time.perf_counter() - started
    spec = ScenarioSpec(
        scheduler=SchedulerSection("fcfs"),
        workload=workload,
        cluster=ClusterSection(config=TOTAL_CLUSTER, num_shards=num_shards),
    )
    result = run(spec)
    return result.metrics, result.wall_clock_sec


def test_bench_federation_shard_scaling():
    results = {}
    for num_shards in SHARD_COUNTS:
        metrics, elapsed = run_fleet(num_shards)
        assert len(metrics.job_completion_times) == STREAM_JOBS
        results[num_shards] = {
            "events": metrics.num_events,
            "elapsed_sec": elapsed,
            "events_per_sec": metrics.num_events / elapsed,
            "average_jct": metrics.average_jct,
            "makespan": metrics.makespan,
        }

    base = results[1]["events_per_sec"]
    print(
        f"\nfederation scaling ({STREAM_JOBS} jobs, Poisson rate {ARRIVAL_RATE}/s, "
        f"{TOTAL_CLUSTER.num_regular_executors}+{TOTAL_CLUSTER.num_llm_executors} "
        "executors total):"
    )
    for num_shards, row in results.items():
        scaling = row["events_per_sec"] / base
        row["scaling_vs_1_shard"] = scaling
        print(
            f"  {num_shards} shard(s): {row['events_per_sec']:,.0f} events/s "
            f"({row['elapsed_sec']:.2f}s wall, {scaling:.2f}x)"
        )

    record_bench_section(
        "federation_shard_scaling",
        {
            "stream_jobs": STREAM_JOBS,
            "arrival_rate": ARRIVAL_RATE,
            "total_regular_executors": TOTAL_CLUSTER.num_regular_executors,
            "total_llm_executors": TOTAL_CLUSTER.num_llm_executors,
            "router": "least_loaded",
            "by_shard_count": {str(k): v for k, v in results.items()},
            "scaling_at_4_shards": results[4]["scaling_vs_1_shard"],
        },
        filename=OUTPUT_FILE,
    )
    assert results[4]["scaling_vs_1_shard"] >= 1.0, (
        f"4-shard fleet is slower than the 1-shard fleet "
        f"({results[4]['scaling_vs_1_shard']:.2f}x its event throughput)"
    )


def test_bench_federated_migration_overhead():
    """Migration keeps a skewed fleet healthy without measurable slowdown.

    A hash-skewed 2-shard fleet (all jobs on one shard) runs once without
    and once with rebalancing.  The skew router is no router a spec can
    name, so the fleet runs through the federated engine directly, as the
    1-shard scaling cell does, on the shard split a 2-shard spec gets.  The
    benchmark records the JCT win and the wall-clock cost of the migration
    machinery.
    """
    from repro.simulator.federation import HashRouter, MigrationConfig

    class AllToZero(HashRouter):
        def select_shard(self, shards, job):
            return 0

    jobs = 120 if SMOKE else 400
    workload = WorkloadSection.open_loop(
        PoissonProcess(rate=4.0, seed=23), seed=23, max_jobs=jobs
    )

    def run_skewed(migration):
        shards = split_cluster_config(TOTAL_CLUSTER, 2)
        fleet = FederatedCluster(
            [(f"shard-{i}", Cluster(config)) for i, config in enumerate(shards)],
            router=AllToZero(),
        )
        started = time.perf_counter()
        engine = FederatedSimulationEngine(
            workload.to_open_loop_spec().jobs(None),
            FcfsScheduler,
            fleet,
            workload_name=workload.name,
            migration=migration,
        )
        return engine.run(), time.perf_counter() - started

    skewed, skewed_elapsed = run_skewed(None)
    balanced, balanced_elapsed = run_skewed(
        MigrationConfig(interval=10.0, imbalance_threshold=0.2, max_migrations_per_check=4)
    )
    assert balanced.num_migrations > 0
    assert len(balanced.job_completion_times) == jobs
    jct_win = 1.0 - balanced.average_jct / skewed.average_jct
    print(
        f"\nfederated migration ({jobs} jobs, 2 shards, hash-skewed): "
        f"{balanced.num_migrations} migrations, JCT {skewed.average_jct:.1f}s -> "
        f"{balanced.average_jct:.1f}s ({jct_win:.0%} win), wall "
        f"{skewed_elapsed:.2f}s -> {balanced_elapsed:.2f}s"
    )
    record_bench_section(
        "federated_migration",
        {
            "jobs": jobs,
            "num_migrations": balanced.num_migrations,
            "migrated_work": balanced.migrated_work,
            "skewed_average_jct": skewed.average_jct,
            "balanced_average_jct": balanced.average_jct,
            "jct_reduction": jct_win,
            "skewed_elapsed_sec": skewed_elapsed,
            "balanced_elapsed_sec": balanced_elapsed,
        },
        filename=OUTPUT_FILE,
    )
    # Rebalancing must pay for itself on a pathologically skewed fleet.
    assert balanced.average_jct < skewed.average_jct
