"""Fig. 8 — "testbed" comparison at 300 jobs, λ = 0.9, four workloads.

The paper's testbed is a single H800 GPU serving Llama-2-7B with vLLM; its
role in the evaluation is to validate that the simulator's comparison is
consistent with real execution and to measure real scheduling overheads
(Table I).  Without a GPU this reproduction runs the same experiment in
"testbed mode": an independently re-seeded workload draw on the same sized
cluster, with wall-clock timing of every scheduler invocation — which is
what Table I consumes.
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

__all__ = ["run", "main", "TESTBED_SEED"]

#: The testbed uses a different workload draw than the simulation runs.
TESTBED_SEED = 1234


def run(
    num_jobs: int = 300,
    arrival_rate: float = 0.9,
    workload_types: Sequence[WorkloadType] = tuple(WorkloadType),
    scheduler_names: Sequence[str] = tuple(PAPER_BASELINES + ["llmsched"]),
    seed: int = TESTBED_SEED,
    settings: Optional[ExperimentSettings] = None,
) -> List[Dict[str, object]]:
    """One row per (workload, scheduler) with average JCT and overhead."""
    base = ScenarioSpec(
        workload=WorkloadSection.closed_loop(
            num_jobs=num_jobs, arrival_rate=arrival_rate, seed=seed
        ),
        settings=settings or ExperimentSettings(),
    )
    axes = {
        "workload.workload_type": [w.value for w in workload_types],
        "scheduler.name": list(scheduler_names),
    }
    # In-process cells: each scheduler call is timed with nothing else running.
    return [
        {
            "workload": overrides["workload.workload_type"],
            "scheduler": overrides["scheduler.name"],
            "average_jct": result.metrics.average_jct,
            "avg_overhead_ms": result.metrics.average_scheduling_overhead_ms,
            "scheduler_invocations": result.metrics.num_scheduler_invocations,
        }
        for overrides, result in run_grid(base, axes, processes=1)
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, default=300)
    parser.add_argument("--arrival-rate", type=float, default=0.9)
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=[w.value for w in WorkloadType],
        choices=[w.value for w in WorkloadType],
    )
    parser.add_argument("--schedulers", nargs="+", default=PAPER_BASELINES + ["llmsched"])
    parser.add_argument("--seed", type=int, default=TESTBED_SEED)
    args = parser.parse_args(argv)
    rows = run(
        num_jobs=args.num_jobs,
        arrival_rate=args.arrival_rate,
        workload_types=[WorkloadType(w) for w in args.workloads],
        scheduler_names=args.schedulers,
        seed=args.seed,
    )
    print(format_table(rows, title="Fig. 8 — testbed-mode average JCT (300 jobs, lambda=0.9)"))


if __name__ == "__main__":
    main()
