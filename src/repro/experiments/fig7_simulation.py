"""Fig. 7 — simulation: average JCT vs number of jobs for every scheduler.

Four workload types (Mixed / Predefined / Chain-like / Planning), arrival
rate λ = 0.9, job counts 100-400, seven schedulers (six baselines plus
LLMSched).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.api import (
    PAPER_BASELINES,
    ExperimentSettings,
    ScenarioSpec,
    WorkloadSection,
    run_grid,
)
from repro.experiments.report import format_table
from repro.workloads.mixtures import WorkloadType

__all__ = ["run", "main", "DEFAULT_SCHEDULERS"]

DEFAULT_SCHEDULERS = PAPER_BASELINES + ["llmsched"]


def run(
    num_jobs_values: Sequence[int] = (100, 200, 300, 400),
    workload_types: Sequence[WorkloadType] = tuple(WorkloadType),
    scheduler_names: Sequence[str] = tuple(DEFAULT_SCHEDULERS),
    arrival_rate: float = 0.9,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
) -> List[Dict[str, object]]:
    """One row per (workload, num_jobs, scheduler) with the average JCT."""
    base = ScenarioSpec(
        workload=WorkloadSection.closed_loop(arrival_rate=arrival_rate, seed=seed),
        settings=settings or ExperimentSettings(),
    )
    axes = {
        "workload.workload_type": [w.value for w in workload_types],
        "workload.num_jobs": [int(n) for n in num_jobs_values],
        "scheduler.name": list(scheduler_names),
    }
    return [
        {
            "workload": overrides["workload.workload_type"],
            "num_jobs": overrides["workload.num_jobs"],
            "scheduler": overrides["scheduler.name"],
            "average_jct": result.metrics.average_jct,
            "p95_jct": result.metrics.jct_summary()["p95"],
            "llm_utilization": result.metrics.utilization.get("llm", 0.0),
        }
        for overrides, result in run_grid(base, axes, processes=1)
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, nargs="+", default=[100, 200, 300, 400])
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=[w.value for w in WorkloadType],
        choices=[w.value for w in WorkloadType],
    )
    parser.add_argument("--schedulers", nargs="+", default=DEFAULT_SCHEDULERS)
    parser.add_argument("--arrival-rate", type=float, default=0.9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rows = run(
        num_jobs_values=args.num_jobs,
        workload_types=[WorkloadType(w) for w in args.workloads],
        scheduler_names=args.schedulers,
        arrival_rate=args.arrival_rate,
        seed=args.seed,
    )
    print(format_table(rows, title="Fig. 7 — average JCT by scheduler, workload and job count"))


if __name__ == "__main__":
    main()
