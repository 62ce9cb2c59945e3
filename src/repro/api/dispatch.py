"""Resolve a :class:`~repro.api.spec.ScenarioSpec` and run it.

:func:`run` is the single front door for every engine the simulator
offers: closed-loop and open-loop single clusters (synchronous or behind
an asynchronous decision-latency backend, optionally autoscaled) and
federated fleets.  The spec is declarative; keyword overrides let callers
inject live objects — prebuilt priors/profilers (worker caches) and
routers the JSON schema cannot express — in place of what the spec would
build.  The golden-trace identity tests in ``tests/test_api_run.py`` pin
spec runs to ``tests/golden/``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.api.prep import (
    build_priors,
    build_profiler,
    size_cluster,
    size_cluster_for_workload,
    split_cluster_config,
)
from repro.api.results import ComparisonResult, Result
from repro.api.spec import ScenarioSpec, SchedulerSection, SpecError
from repro.core.profiler import BayesianProfiler
from repro.dag.application import ApplicationTemplate
from repro.schedulers.base import Scheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import (
    LLMSCHED_VARIANTS,
    create_scheduler,
    scheduler_requirements,
)
from repro.simulator.async_sched import AsyncSchedulerBackend
from repro.simulator.autoscaler import ThresholdAutoscaler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    JobRouter,
    create_job_router,
)
from repro.simulator.placement import create_placement_policy
from repro.simulator.protocol import ensure_engine_protocol
from repro.workloads.mixtures import default_applications, generate_workload
from repro.workloads.serving import DEFAULT_SLO_TARGETS, attach_token_model

__all__ = ["run", "compare"]


def _make_scheduler(spec: ScenarioSpec, priors, profiler) -> Scheduler:
    section = spec.scheduler
    if section.name.lower() in LLMSCHED_VARIANTS:
        # LLMSched kwargs override Algorithm 1 config fields declaratively.
        settings = spec.settings
        if section.kwargs:
            settings = replace(settings, llmsched=replace(settings.llmsched, **section.kwargs))
        return create_scheduler(section.name, profiler=profiler, settings=settings)
    if section.name.lower() == "slo_serving":
        # The SLO scheduler reads the scenario's declarative targets and the
        # settings' latency slope unless the kwargs override them explicitly.
        kwargs = dict(section.kwargs)
        if spec.slo is not None and "slo_targets" not in kwargs:
            kwargs["slo_targets"] = spec.slo.targets()
        kwargs.setdefault("latency_slope", spec.settings.latency_slope)
        return create_scheduler(section.name, **kwargs)
    return create_scheduler(
        section.name, priors=priors, profiler=profiler, settings=spec.settings, **section.kwargs
    )


def _serving_targets(spec: ScenarioSpec) -> Dict[str, Dict[str, float]]:
    """The SLO targets a token-model run meters goodput against."""
    if spec.slo is not None:
        return spec.slo.targets()
    return {tier: dict(targets) for tier, targets in DEFAULT_SLO_TARGETS.items()}


def _resolve_total_config(
    spec: ScenarioSpec, applications: Mapping[str, ApplicationTemplate]
) -> Optional[ClusterConfig]:
    """The (explicit or workload-sized) total cluster config, None for pools."""
    section = spec.cluster
    if section.pools is not None:
        return None
    if section.config is not None:
        return section.config
    workload = spec.workload
    if workload.mode == "closed":
        return size_cluster_for_workload(
            workload.to_workload_spec(), applications, spec.settings
        )
    rate = section.nominal_rate
    if rate is None:
        rate = getattr(workload.process, "rate", None)
        if rate is None:
            raise SpecError(
                "open-loop sizing needs cluster.nominal_rate (or an explicit cluster "
                f"config) for {type(workload.process).__name__}"
            )
    names = list(workload.application_names or sorted(applications))
    return size_cluster(float(rate), names, applications, spec.settings)


def run(
    spec: ScenarioSpec,
    *,
    applications: Optional[Mapping[str, ApplicationTemplate]] = None,
    priors: Optional[ApplicationPriors] = None,
    profiler: Optional[BayesianProfiler] = None,
    router: Optional[JobRouter] = None,
    store=None,
) -> Result:
    """Run one scenario and return its uniform :class:`Result`.

    Offline artifacts (``priors``, ``profiler``) are built from the spec's
    settings only when the scheduler actually needs them; passing prebuilt
    ones (e.g. from a sweep worker's cache) skips that work without
    changing the simulation.  ``router`` replaces the cluster section's
    named router on a federated run (``num_shards > 1``).

    ``store`` — a :class:`repro.store.RunStore` (or a path to one) — makes
    the run self-recording: the finished :class:`Result` persists as a
    content-addressed record before this returns.  The record's identity
    hash excludes wall-clock fields, so re-running the same spec + seed
    deduplicates instead of accumulating near-duplicates.
    """
    spec.validate()
    # A router the single-cluster engine would never consult is rejected
    # rather than silently dropped.
    if spec.cluster.num_shards == 1 and router is not None:
        raise SpecError(
            "a router override only applies to federated runs; set "
            "cluster.num_shards > 1 to route jobs across shards"
        )
    applications = applications or default_applications()
    requirements = scheduler_requirements(spec.scheduler.name)
    if priors is None and "priors" in requirements:
        priors = build_priors(applications, spec.settings)
    if profiler is None and "profiler" in requirements:
        profiler = build_profiler(applications, spec.settings)

    total_config = _resolve_total_config(spec, applications)
    resolved = spec
    if total_config is not None and spec.cluster.config is None:
        resolved = replace(spec, cluster=replace(spec.cluster, config=total_config))

    started = time.perf_counter()  # repro: REP003-exempt -- meters the Result wall-clock field, outside the simulation
    if spec.cluster.num_shards > 1:
        metrics = _run_federated(resolved, applications, priors, profiler, router)
    else:
        metrics = _run_single(resolved, applications, priors, profiler)
    wall_clock = time.perf_counter() - started  # repro: REP003-exempt -- meters the Result wall-clock field, outside the simulation
    result = Result(
        spec=resolved, metrics=metrics, seed=spec.workload.seed, wall_clock_sec=wall_clock
    )
    if store is not None:
        from repro.store import RunStore  # lazy: repro.store imports api.spec

        if not isinstance(store, RunStore):
            store = RunStore(store)
        store.add_result(result)
    return result


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
        jobs = workload.to_open_loop_spec().jobs(dict(applications))
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
    return ensure_engine_protocol(engine).run()


def _run_federated(spec, applications, priors, profiler, router):
    section = spec.cluster
    shard_configs = split_cluster_config(section.config, section.num_shards)
    fleet = FederatedCluster(
        [(f"shard-{i}", Cluster(cfg)) for i, cfg in enumerate(shard_configs)],
        router=(
            router
            if router is not None
            else create_job_router(section.router, **section.router_kwargs)
        ),
    )
    engine = ensure_engine_protocol(
        FederatedSimulationEngine(
            spec.workload.to_open_loop_spec().jobs(dict(applications)),
            lambda: _make_scheduler(spec, priors, profiler),
            fleet,
            config=SimulationConfig(snapshot_policy=spec.settings.snapshot_policy),
            workload_name=spec.workload.name,
            migration=section.migration,
            async_backend_factory=_async_backend_factory(spec),
        )
    )
    return engine.run()


def compare(
    spec: ScenarioSpec,
    scheduler_names: Sequence[str],
    *,
    applications: Optional[Mapping[str, ApplicationTemplate]] = None,
    priors: Optional[ApplicationPriors] = None,
    profiler: Optional[BayesianProfiler] = None,
) -> ComparisonResult:
    """Run several schedulers on the *identical* workload draw and cluster.

    The cluster is resolved once (auto-sizing included) and every scheduler
    replays the same closed-loop draw on it, so the returned
    :class:`ComparisonResult` is a fair comparison; priors/profiler are
    built once, only if some scheduler in the list needs them.
    """
    if not scheduler_names:
        raise ValueError("scheduler_names must not be empty")
    if spec.workload.mode != "closed":
        raise SpecError("compare() needs a closed-loop workload (identical draws per scheduler)")
    applications = applications or default_applications()
    needs = set()
    for name in scheduler_names:
        needs |= scheduler_requirements(name)
    if priors is None and "priors" in needs:
        priors = build_priors(applications, spec.settings)
    if profiler is None and "profiler" in needs:
        profiler = build_profiler(applications, spec.settings)
    if spec.cluster.pools is not None:
        resolved_cluster = spec.cluster
    else:
        resolved_cluster = replace(spec.cluster, config=_resolve_total_config(spec, applications))
    metrics = {}
    for name in scheduler_names:
        cell = replace(spec, scheduler=SchedulerSection(name=name), cluster=resolved_cluster)
        metrics[name] = run(
            cell, applications=applications, priors=priors, profiler=profiler
        ).metrics
    return ComparisonResult(workload=spec.workload.to_workload_spec(), metrics=metrics)
