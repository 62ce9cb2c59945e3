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
    compare,
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

    rows = []
    for workload_type in WorkloadType:
        scenario = ScenarioSpec(
            workload=WorkloadSection.closed_loop(
                workload_type.value,
                num_jobs=args.num_jobs,
                arrival_rate=args.arrival_rate,
                seed=args.seed,
            ),
            settings=settings,
        )
        comparison = compare(scenario, schedulers)
        row = {"workload": workload_type.value}
        row.update({name: comparison.metrics[name].average_jct for name in schedulers})
        rows.append(row)

    print(
        format_table(
            rows,
            columns=["workload"] + schedulers,
            title=f"Average JCT (s) per scheduler — {args.num_jobs} jobs, lambda={args.arrival_rate}",
        )
    )


if __name__ == "__main__":
    main()
