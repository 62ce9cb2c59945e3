"""Table I — average scheduling overhead (milliseconds per invocation).

Measured as real wall-clock time spent inside each scheduler's
``schedule()`` call during the Fig. 8 testbed-mode runs; LLMSched's number
includes Bayesian inference and entropy calculation, mirroring the paper.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.api import PAPER_BASELINES, ExperimentSettings
from repro.experiments import fig8_testbed
from repro.experiments.report import format_table
from repro.workloads.mixtures import WorkloadType

__all__ = ["run", "main"]


def run(
    num_jobs: int = 300,
    arrival_rate: float = 0.9,
    workload_types: Sequence[WorkloadType] = tuple(WorkloadType),
    scheduler_names: Sequence[str] = tuple(PAPER_BASELINES + ["llmsched"]),
    seed: int = fig8_testbed.TESTBED_SEED,
    settings: Optional[ExperimentSettings] = None,
) -> List[Dict[str, object]]:
    """One row per scheduler with the per-workload overhead in ms (Table I)."""
    raw = fig8_testbed.run(
        num_jobs=num_jobs,
        arrival_rate=arrival_rate,
        workload_types=workload_types,
        scheduler_names=scheduler_names,
        seed=seed,
        settings=settings,
    )
    by_scheduler: Dict[str, Dict[str, object]] = {}
    for row in raw:
        entry = by_scheduler.setdefault(row["scheduler"], {"scheduler": row["scheduler"]})
        entry[str(row["workload"])] = row["avg_overhead_ms"]
    return list(by_scheduler.values())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, default=300)
    parser.add_argument("--schedulers", nargs="+", default=PAPER_BASELINES + ["llmsched"])
    args = parser.parse_args(argv)
    rows = run(num_jobs=args.num_jobs, scheduler_names=args.schedulers)
    columns = ["scheduler"] + [w.value for w in WorkloadType]
    print(
        format_table(
            rows,
            columns=columns,
            float_format="{:.2f}",
            title="Table I — average scheduling overhead per invocation (ms)",
        )
    )


if __name__ == "__main__":
    main()
