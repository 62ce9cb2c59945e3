"""The declarative experiment API: one spec tree, one ``run()`` front door.

The paper's evaluation is a grid of scenarios — schedulers × workloads ×
cluster shapes × control-plane staleness.  This package expresses every
cell as a serializable :class:`ScenarioSpec` and runs it through a single
dispatcher::

    from repro import api

    spec = api.ScenarioSpec(
        scheduler=api.SchedulerSection("llmsched"),
        workload=api.WorkloadSection.closed_loop("mixed", num_jobs=300),
    )
    result = api.run(spec)                 # -> api.Result
    rows = api.run_grid(spec, {"workload.arrival_rate": [0.6, 0.9, 1.2],
                               "scheduler.name": ["fcfs", "llmsched"]})

Specs round-trip through JSON (``to_json`` / ``from_json``) and drive the
``python -m repro`` CLI (``run`` / ``grid`` / ``pareto`` / ``validate`` /
``list-schedulers``); committed examples live under ``examples/specs/``.
This package is the only experiment entry point; every figure driver in
:mod:`repro.experiments` that simulates runs through it.
"""

from repro.api.dispatch import compare, run
from repro.api.grid import expand_axes, run_grid, run_specs
from repro.api.prep import (
    PAPER_BASELINES,
    ExperimentSettings,
    build_priors,
    build_profiler,
    size_cluster,
    size_cluster_for_workload,
    split_cluster_config,
)
from repro.api.results import ComparisonResult, Result
from repro.api.spec import (
    SCHEMA_VERSION,
    AsyncSection,
    AutoscalerSection,
    ClusterSection,
    MigrationSection,
    PlacementSection,
    ScenarioSpec,
    SchedulerSection,
    SettingsSection,
    SLOSection,
    SpecError,
    WorkloadSection,
    with_overrides,
)

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "ScenarioSpec",
    "SchedulerSection",
    "WorkloadSection",
    "ClusterSection",
    "PlacementSection",
    "AsyncSection",
    "AutoscalerSection",
    "MigrationSection",
    "SettingsSection",
    "SLOSection",
    "with_overrides",
    "run",
    "compare",
    "run_grid",
    "run_specs",
    "expand_axes",
    "Result",
    "ComparisonResult",
    "ExperimentSettings",
    "PAPER_BASELINES",
    "build_priors",
    "build_profiler",
    "size_cluster",
    "size_cluster_for_workload",
    "split_cluster_config",
]
