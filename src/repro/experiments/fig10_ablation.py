"""Fig. 10 — ablation study: LLMSched w/o BN and w/o uncertainty.

``LLMSched w/o BN`` keeps Algorithm 1 but estimates durations from the
historical per-stage means instead of the Bayesian posterior;
``LLMSched w/o uncertainty`` keeps the Bayesian estimates but disables the
exploration list (pure SRTF).  Results are normalised to full LLMSched on
the same workload, exactly as the paper plots them.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.api import (
    ExperimentSettings,
    ScenarioSpec,
    WorkloadSection,
    run_grid,
)
from repro.experiments.report import format_table
from repro.workloads.mixtures import WorkloadType

__all__ = ["run", "main", "ABLATION_SCHEDULERS"]

ABLATION_SCHEDULERS = ["llmsched", "llmsched_wo_bn", "llmsched_wo_uncertainty"]


def run(
    num_jobs: int = 300,
    arrival_rate: float = 0.9,
    workload_types: Sequence[WorkloadType] = tuple(WorkloadType),
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
    include_calibration_ablation: bool = False,
) -> List[Dict[str, object]]:
    """One row per workload with the normalised JCT of the ablations.

    ``include_calibration_ablation`` additionally runs LLMSched without the
    batching-aware duration calibration (Eq. 2) — an extension ablation not
    present in the paper but listed in DESIGN.md.
    """
    scheduler_names = list(ABLATION_SCHEDULERS)
    if include_calibration_ablation:
        scheduler_names.append("llmsched_wo_calibration")
    base = ScenarioSpec(
        workload=WorkloadSection.closed_loop(
            num_jobs=num_jobs, arrival_rate=arrival_rate, seed=seed
        ),
        settings=settings or ExperimentSettings(),
    )
    axes = {
        "workload.workload_type": [w.value for w in workload_types],
        "scheduler.name": scheduler_names,
    }
    jcts: Dict[str, Dict[str, float]] = {}
    for overrides, result in run_grid(base, axes, processes=1):
        workload = overrides["workload.workload_type"]
        jcts.setdefault(workload, {})[overrides["scheduler.name"]] = result.average_jct

    rows: List[Dict[str, object]] = []
    for workload, jct in jcts.items():
        row: Dict[str, object] = {
            "workload": workload,
            "llmsched_avg_jct": jct["llmsched"],
            "wo_bn_norm": jct["llmsched_wo_bn"] / jct["llmsched"],
            "wo_uncertainty_norm": jct["llmsched_wo_uncertainty"] / jct["llmsched"],
        }
        if include_calibration_ablation:
            row["wo_calibration_norm"] = jct["llmsched_wo_calibration"] / jct["llmsched"]
        rows.append(row)
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, default=300)
    parser.add_argument("--arrival-rate", type=float, default=0.9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--with-calibration-ablation", action="store_true")
    args = parser.parse_args(argv)
    rows = run(
        num_jobs=args.num_jobs,
        arrival_rate=args.arrival_rate,
        seed=args.seed,
        include_calibration_ablation=args.with_calibration_ablation,
    )
    print(
        format_table(
            rows,
            float_format="{:.3f}",
            title="Fig. 10 — ablation (normalised average JCT, 1.0 = full LLMSched)",
        )
    )


if __name__ == "__main__":
    main()
