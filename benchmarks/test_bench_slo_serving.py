"""SLO serving benchmark: goodput + TPS/GPU-vs-TPS/User Pareto comparison.

Every registered scheduler plus ``slo_serving`` replays the *identical*
token-model workload draw on the identical fixed cluster, once per traffic
mix (chat / batch / agentic), fanned out through the declarative grid API
(:func:`repro.api.grid.run_grid` over ``scheduler.name`` x
``workload.token_mix``).  The per-mix Pareto tables come from the same
:func:`repro.api.cli.pareto_rows` helper that powers ``python -m repro
pareto``, so the bench file, the CLI and the regression gate all read one
schema — no percentile math is re-derived here.

Asserts the ISSUE 9 acceptance bar: ``slo_serving`` beats **all eight**
incumbents on overall goodput at fixed hardware for at least one traffic
mix, and everything lands in ``BENCH_6.json`` (CI artifact + regression
baseline), including the full ``Result.to_dict()`` payloads of the
``slo_serving`` cells.

Smoke mode (``BENCH_SCALE=smoke``) shrinks the job count and the offline
profiling phase for CI.
"""

import os

from bench_output import record_bench_section, record_results
from conftest import BENCH_SETTINGS
from repro.api import ClusterSection, ExperimentSettings, ScenarioSpec, WorkloadSection
from repro.api.cli import pareto_rows
from repro.api.grid import run_grid
from repro.api.spec import SLOSection
from repro.schedulers.registry import available_schedulers
from repro.simulator.cluster import ClusterConfig
from repro.workloads.serving import DEFAULT_SLO_TARGETS, available_token_mixes

SMOKE = os.environ.get("BENCH_SCALE") == "smoke"
NUM_JOBS = 40 if SMOKE else 120
SETTINGS = ExperimentSettings(profile_jobs=30, prior_samples=15) if SMOKE else BENCH_SETTINGS
OUTPUT_FILE = "BENCH_6.json"

#: Deliberately tight: goodput only separates schedulers under contention.
CLUSTER = ClusterConfig(num_regular_executors=3, num_llm_executors=2, max_batch_size=8)

INCUMBENTS = available_schedulers()
MIXES = available_token_mixes()


def _base_spec():
    return ScenarioSpec(
        workload=WorkloadSection.closed_loop(
            "mixed",
            num_jobs=NUM_JOBS,
            arrival_rate=0.9,
            seed=7,
            token_mix=MIXES[0],
            token_seed=3,
        ),
        cluster=ClusterSection(config=CLUSTER),
        slo=SLOSection(tiers=DEFAULT_SLO_TARGETS),
        settings=SETTINGS,
    )


def test_bench_slo_serving_pareto():
    schedulers = list(INCUMBENTS) + ["slo_serving"]
    axes = {
        "workload.token_mix": list(MIXES),
        "scheduler.name": schedulers,
    }
    cells = run_grid(_base_spec(), axes)

    by_mix = {mix: [] for mix in MIXES}
    for overrides, result in cells:
        by_mix[overrides["workload.token_mix"]].append((overrides, result))

    mixes_payload = {}
    slo_results = {}
    winning_mixes = []
    for mix in MIXES:
        rows = pareto_rows(by_mix[mix])
        goodput = {row["scheduler"]: row["goodput"] for row in rows}
        # Identical draw per mix: every scheduler serves the same requests.
        requests = {row["num_requests"] for row in rows}
        assert len(requests) == 1, f"{mix}: request counts diverge across schedulers {requests}"
        best_incumbent = max(goodput[name] for name in INCUMBENTS)
        if goodput["slo_serving"] > best_incumbent:
            winning_mixes.append(mix)
        mixes_payload[mix] = {
            "goodput": goodput,
            "best_incumbent_goodput": best_incumbent,
            "pareto": rows,
        }
        for overrides, result in by_mix[mix]:
            if overrides["scheduler.name"] == "slo_serving":
                slo_results[f"slo_serving@{mix}"] = result

    print(f"\nSLO serving goodput ({NUM_JOBS} jobs, {len(MIXES)} mixes, fixed cluster):")
    for mix in MIXES:
        goodput = mixes_payload[mix]["goodput"]
        line = "  ".join(f"{name}={goodput[name]:.3f}" for name in INCUMBENTS)
        tag = "WIN" if mix in winning_mixes else "   "
        print(f"  {mix:>8} {tag} slo_serving={goodput['slo_serving']:.3f} | {line}")

    assert winning_mixes, (
        "slo_serving beat no incumbent lineup on goodput for any traffic mix: "
        + "; ".join(
            f"{mix}: slo={mixes_payload[mix]['goodput']['slo_serving']:.3f} vs "
            f"best={mixes_payload[mix]['best_incumbent_goodput']:.3f}"
            for mix in MIXES
        )
    )

    record_bench_section(
        "slo_serving_pareto",
        {
            "num_jobs": NUM_JOBS,
            "cluster": {
                "num_regular_executors": CLUSTER.num_regular_executors,
                "num_llm_executors": CLUSTER.num_llm_executors,
                "max_batch_size": CLUSTER.max_batch_size,
            },
            "schedulers": schedulers,
            "winning_mixes": winning_mixes,
            "mixes": mixes_payload,
        },
        filename=OUTPUT_FILE,
    )
    record_results("slo_serving_results", slo_results, filename=OUTPUT_FILE)
