"""Fig. 9 — sensitivity of LLMSched to ε, r, and the arrival rate λ.

(a) normalised average JCT vs exploration probability ε,
(b) normalised average JCT vs task sampling ratio r,
(c) normalised average JCT vs arrival rate λ for the four workload types.

Normalisation follows the paper: every series is divided by the average JCT
of LLMSched at its default configuration on the same workload.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Sequence

from repro.api import (
    ClusterSection,
    ExperimentSettings,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
    run_grid,
)
from repro.api.prep import prepared_cluster
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, default_applications
from repro.experiments.report import format_series

__all__ = ["run_epsilon_sweep", "run_sampling_sweep", "run_arrival_sweep", "run", "main"]


def _option_sweep(
    option: str,
    values: Sequence[float],
    workload_type: WorkloadType,
    num_jobs: int,
    arrival_rate: float,
    seed: int,
    settings: ExperimentSettings,
) -> Dict[float, float]:
    """LLMSched's average JCT for each value of one scheduler option,
    normalised to the run at the option's configured default."""
    base = ScenarioSpec(
        scheduler=SchedulerSection("llmsched"),
        workload=WorkloadSection.closed_loop(workload_type.value, num_jobs, arrival_rate, seed),
        settings=settings,
    )
    axes = {f"scheduler.kwargs.{option}": [float(v) for v in values]}
    jcts = {
        overrides[f"scheduler.kwargs.{option}"]: result.average_jct
        for overrides, result in run_grid(base, axes, processes=1)
    }
    reference = jcts.get(getattr(settings.llmsched, option)) or min(jcts.values())
    return {value: jct / reference for value, jct in jcts.items()}


def run_epsilon_sweep(
    epsilons: Sequence[float] = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
    workload_type: WorkloadType = WorkloadType.MIXED,
    num_jobs: int = 300,
    arrival_rate: float = 0.9,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
) -> Dict[float, float]:
    """Normalised average JCT for each exploration probability (Fig. 9a)."""
    return _option_sweep(
        "epsilon", epsilons, workload_type, num_jobs, arrival_rate, seed,
        settings or ExperimentSettings(),
    )


def run_sampling_sweep(
    ratios: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
    workload_type: WorkloadType = WorkloadType.MIXED,
    num_jobs: int = 300,
    arrival_rate: float = 0.9,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
) -> Dict[float, float]:
    """Normalised average JCT for each task sampling ratio (Fig. 9b)."""
    return _option_sweep(
        "sampling_ratio", ratios, workload_type, num_jobs, arrival_rate, seed,
        settings or ExperimentSettings(),
    )


def run_arrival_sweep(
    arrival_rates: Sequence[float] = (0.6, 0.9, 1.2),
    workload_types: Sequence[WorkloadType] = tuple(WorkloadType),
    num_jobs: int = 300,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
) -> Dict[str, Dict[float, float]]:
    """Normalised average JCT per workload as the arrival rate varies (Fig. 9c).

    The cluster is sized once for the paper's default λ = 0.9 and kept fixed,
    so lower / higher rates correspond to lightly / heavily loaded clusters.
    That sizing differs per workload type, so each type is its own grid.
    """
    settings = settings or ExperimentSettings()
    applications = default_applications()
    result: Dict[str, Dict[float, float]] = {}
    for workload_type in workload_types:
        names = WorkloadSpec(workload_type=workload_type).application_names
        base = ScenarioSpec(
            scheduler=SchedulerSection("llmsched"),
            workload=WorkloadSection.closed_loop(workload_type.value, num_jobs=num_jobs, seed=seed),
            cluster=ClusterSection(config=prepared_cluster(0.9, names, settings, applications)),
            settings=settings,
        )
        axes = {"workload.arrival_rate": [float(rate) for rate in arrival_rates]}
        jcts = {
            overrides["workload.arrival_rate"]: cell.average_jct
            for overrides, cell in run_grid(base, axes, processes=1)
        }
        reference = jcts.get(0.9) or min(jcts.values())
        result[workload_type.value] = {rate: jct / reference for rate, jct in jcts.items()}
    return result


def run(
    num_jobs: int = 300,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
) -> Dict[str, object]:
    """All three sensitivity sweeps of Fig. 9."""
    return {
        "fig9a_epsilon": run_epsilon_sweep(num_jobs=num_jobs, seed=seed, settings=settings),
        "fig9b_sampling_ratio": run_sampling_sweep(num_jobs=num_jobs, seed=seed, settings=settings),
        "fig9c_arrival_rate": run_arrival_sweep(num_jobs=num_jobs, seed=seed, settings=settings),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-jobs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = run(num_jobs=args.num_jobs, seed=args.seed)
    print(format_series(results["fig9a_epsilon"], "epsilon", "norm. avg JCT", title="Fig. 9a — exploration probability"))
    print()
    print(format_series(results["fig9b_sampling_ratio"], "sampling ratio", "norm. avg JCT", title="Fig. 9b — task sampling ratio"))
    print()
    for workload, series in results["fig9c_arrival_rate"].items():
        print(format_series(series, "lambda", "norm. avg JCT", title=f"Fig. 9c — arrival rate ({workload})"))
        print()


if __name__ == "__main__":
    main()
