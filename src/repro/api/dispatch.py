"""Resolve a :class:`~repro.api.spec.ScenarioSpec` and run it.

:func:`run` is the single front door for every engine the simulator
offers: closed-loop and open-loop single clusters (synchronous or behind
an asynchronous decision-latency backend, optionally autoscaled) and
federated fleets.  The spec is the whole input: a run takes the priors,
the fitted profiler and the cluster sizing it needs from the
offline-artifact memo in :mod:`repro.api.prep`, and sweeps go through
:func:`repro.api.run_grid`.  The golden-trace identity tests in
``tests/test_api_run.py`` pin spec runs to ``tests/golden/``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.api.prep import (
    prepared_cluster,
    prepared_priors,
    prepared_profiler,
    split_cluster_config,
)
from repro.api.results import Result
from repro.api.spec import ScenarioSpec
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import create_scheduler, scheduler_requirements
from repro.simulator.async_sched import AsyncSchedulerBackend
from repro.simulator.autoscaler import ThresholdAutoscaler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    create_job_router,
)
from repro.simulator.placement import create_placement_policy
from repro.workloads.mixtures import APPLICATION_NAMES, default_applications, generate_workload
from repro.workloads.serving import DEFAULT_SLO_TARGETS, attach_token_model

__all__ = ["run"]


def _make_scheduler(spec: ScenarioSpec, priors, profiler) -> Scheduler:
    section = spec.scheduler
    kwargs = dict(section.kwargs)
    if section.name.lower() == "slo_serving":
        # The SLO scheduler chases the targets goodput is metered against.
        kwargs.update(slo_targets=_serving_targets(spec), latency_slope=spec.settings.latency_slope)
    return create_scheduler(
        section.name, priors=priors, profiler=profiler, settings=spec.settings, **kwargs
    )


def _serving_targets(spec: ScenarioSpec) -> Dict[str, Dict[str, float]]:
    """The SLO targets a token-model run meters goodput against."""
    if spec.slo is not None:
        return spec.slo.targets()
    return {tier: dict(targets) for tier, targets in DEFAULT_SLO_TARGETS.items()}


def _resolve_total_config(spec: ScenarioSpec, applications) -> Optional[ClusterConfig]:
    """The (explicit or workload-sized) total cluster config, None for pools.

    ``ScenarioSpec.validate`` guarantees an open-loop spec sized here has
    a ``nominal_rate`` or a process with a ``rate``.
    """
    section = spec.cluster
    if section.pools is not None:
        return None
    if section.config is not None:
        return section.config
    workload = spec.workload
    if workload.mode == "closed":
        rate, names = workload.arrival_rate, workload.to_workload_spec().application_names
    else:
        rate = section.nominal_rate if section.nominal_rate is not None else workload.process.rate
        names = workload.application_names or sorted(APPLICATION_NAMES)
    return prepared_cluster(rate, names, spec.settings, applications)


def run(spec: ScenarioSpec) -> Result:
    """Run one scenario and return its uniform :class:`Result`.

    The priors and the fitted profiler, built only for a scheduler that
    needs them, and an auto-sized cluster come from the memo in
    :mod:`repro.api.prep`: equal inputs share one build per process, and
    each run gets its own profiler query caches.  The run builds the
    application templates once, for its jobs and for any memo miss.
    :meth:`repro.store.RunStore.add_result` records the returned Result.
    """
    spec.validate()
    applications = default_applications()
    requirements = scheduler_requirements(spec.scheduler.name)
    priors = prepared_priors(spec.settings, applications) if "priors" in requirements else None
    profiler = (
        prepared_profiler(spec.settings, applications) if "profiler" in requirements else None
    )

    total_config = _resolve_total_config(spec, applications)
    resolved = spec
    if total_config is not None and spec.cluster.config is None:
        resolved = replace(
            spec, cluster=replace(spec.cluster, config=total_config, nominal_rate=None)
        )

    started = time.perf_counter()  # repro: REP003-exempt -- meters the Result wall-clock field, outside the simulation
    if spec.cluster.num_shards > 1:
        metrics = _run_federated(resolved, applications, priors, profiler)
    else:
        metrics = _run_single(resolved, applications, priors, profiler)
    wall_clock = time.perf_counter() - started  # repro: REP003-exempt -- meters the Result wall-clock field, outside the simulation
    return Result(
        spec=resolved, metrics=metrics, seed=spec.workload.seed, wall_clock_sec=wall_clock
    )


def _async_backend_factory(spec: ScenarioSpec) -> Optional[Callable[[], AsyncSchedulerBackend]]:
    """One fresh backend per engine (shard), or None without an async section."""
    if spec.async_ is None:
        return None
    config = spec.async_.to_async_config()
    return lambda: AsyncSchedulerBackend(config)


def _run_single(spec, applications, priors, profiler):
    workload = spec.workload
    if spec.cluster.pools is not None:
        cluster = Cluster(pools=spec.cluster.pools)
    else:
        cluster = Cluster(spec.cluster.config)
    if workload.mode == "closed":
        jobs = generate_workload(workload.to_workload_spec(), applications=applications)
        workload_name = workload.workload_type
    else:
        jobs = workload.to_open_loop_spec().jobs(applications)
        workload_name = workload.name
    if workload.token_mix is not None:
        token_seed = workload.token_seed if workload.token_seed is not None else workload.seed
        attach_token_model(jobs, workload.token_mix, seed=token_seed)
    make_backend = _async_backend_factory(spec)
    engine = SimulationEngine(
        jobs,
        _make_scheduler(spec, priors, profiler),
        cluster=cluster,
        config=SimulationConfig(snapshot_policy=spec.settings.snapshot_policy),
        workload_name=workload_name,
        placement=(
            create_placement_policy(spec.placement.name) if spec.placement is not None else None
        ),
        autoscaler=(
            ThresholdAutoscaler(spec.autoscaler) if spec.autoscaler is not None else None
        ),
        async_backend=make_backend() if make_backend is not None else None,
    )
    if workload.token_mix is not None:
        engine.metrics.slo_targets = _serving_targets(spec)
    return engine.run()


def _run_federated(spec, applications, priors, profiler):
    section = spec.cluster
    shard_configs = split_cluster_config(section.config, section.num_shards)
    fleet = FederatedCluster(
        [(f"shard-{i}", Cluster(cfg)) for i, cfg in enumerate(shard_configs)],
        router=create_job_router(section.router, **section.router_kwargs),
    )
    return FederatedSimulationEngine(
        spec.workload.to_open_loop_spec().jobs(applications),
        lambda: _make_scheduler(spec, priors, profiler),
        fleet,
        config=SimulationConfig(snapshot_policy=spec.settings.snapshot_policy),
        workload_name=spec.workload.name,
        migration=section.migration,
        async_backend_factory=_async_backend_factory(spec),
    ).run()
