"""Compare every scheduler on each of the paper's four workload types.

A scaled-down version of the paper's Fig. 7/8 comparison that finishes in a
couple of minutes::

    python examples/scheduler_comparison.py --num-jobs 120
"""

import argparse

from repro.api import (
    PAPER_BASELINES,
    ExperimentSettings,
    ScenarioSpec,
    WorkloadSection,
    run_grid,
)
from repro.experiments.report import format_table
from repro.workloads.mixtures import WorkloadType


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, default=120)
    parser.add_argument("--arrival-rate", type=float, default=0.9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    settings = ExperimentSettings(profile_jobs=100, prior_samples=60)
    schedulers = PAPER_BASELINES + ["llmsched"]

    base = ScenarioSpec(
        workload=WorkloadSection.closed_loop(
            num_jobs=args.num_jobs, arrival_rate=args.arrival_rate, seed=args.seed
        ),
        settings=settings,
    )
    axes = {
        "workload.workload_type": [w.value for w in WorkloadType],
        "scheduler.name": schedulers,
    }
    rows = {}
    for overrides, result in run_grid(base, axes, processes=1):
        workload = overrides["workload.workload_type"]
        row = rows.setdefault(workload, {"workload": workload})
        row[overrides["scheduler.name"]] = result.average_jct

    print(
        format_table(
            list(rows.values()),
            columns=["workload"] + schedulers,
            title=f"Average JCT (s) per scheduler — {args.num_jobs} jobs, lambda={args.arrival_rate}",
        )
    )


if __name__ == "__main__":
    main()
