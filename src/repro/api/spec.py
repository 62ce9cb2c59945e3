"""The declarative scenario tree: one serializable description per run.

A :class:`ScenarioSpec` captures everything a simulation run needs — the
workload (closed-loop draw or open-loop arrival process), the cluster
shape (homogeneous config, heterogeneous pools, or a federated fleet),
the scheduler, and the optional placement / async / autoscaler layers —
as a frozen dataclass tree that round-trips through JSON::

    spec = ScenarioSpec(
        scheduler=SchedulerSection("llmsched"),
        workload=WorkloadSection.closed_loop("mixed", num_jobs=300),
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec

Validation happens at construction time and raises :class:`SpecError`
(a ``ValueError``) with actionable messages.  Every scalar field declares
its rule once, in ``dataclasses.field(metadata=...)``, and
:func:`~repro.utils.validation.check_fields` checks them all, naming the
field and the value; ``__post_init__`` keeps only the cross-field rules
(conflicting sections such as pools + cluster config or federation +
autoscaler name both offenders).  The spec is resolved into live simulator
objects by :mod:`repro.api.dispatch`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.api.prep import ExperimentSettings
from repro.core.llmsched import LLMSchedConfig
from repro.utils.canonical import content_hash
from repro.utils.validation import (
    boolean,
    check_fields,
    integer,
    mapping,
    one_of,
    positive,
    real,
    require_real,
    text,
)
from repro.dag.task import TaskType
from repro.schedulers.registry import check_scheduler_kwargs
from repro.simulator.async_sched import AsyncConfig, PerJobLinearLatency, SampledLatency
from repro.simulator.autoscaler import AutoscalerConfig
from repro.simulator.cluster import ClusterConfig
from repro.simulator.federation import MigrationConfig, available_job_routers, create_job_router
from repro.simulator.placement import available_placement_policies
from repro.simulator.pool import PoolSpec
from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    DiurnalProcess,
    OpenLoopSpec,
    PoissonProcess,
    TraceReplayProcess,
    _Superposition,
    _Take,
    _Until,
)
from repro.workloads.mixtures import WorkloadSpec, WorkloadType
from repro.workloads.serving import available_token_mixes

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "SchedulerSection",
    "WorkloadSection",
    "ClusterSection",
    "PlacementSection",
    "AsyncSection",
    "AutoscalerSection",
    "MigrationSection",
    "SettingsSection",
    "SLOSection",
    "ScenarioSpec",
    "with_overrides",
]

#: Version stamped into every serialized spec; bumped on breaking changes.
#: v2 adds the token-level serving surface: an ``slo`` section (per-tier
#: TTFT/TPOT targets), ``token_mix`` / ``token_seed`` on the workload
#: section, and the prefill/decode ``role`` on pool specs.  v1 documents
#: are upcast on read (see :func:`_upcast_v1`): v1 predates every serving
#: construct, so a valid v1 spec is byte-for-byte a valid v2 spec.
SCHEMA_VERSION = 2

#: Sections that alias existing (already frozen, already validated) config
#: dataclasses: the spec tree embeds the real simulator configs, so resolving
#: a spec never copies fields around.
AutoscalerSection = AutoscalerConfig
MigrationSection = MigrationConfig
SettingsSection = ExperimentSettings


class SpecError(ValueError):
    """A scenario spec failed validation (message says how to fix it)."""


# --------------------------------------------------------------------------- #
# Generic (de)serialization helpers
# --------------------------------------------------------------------------- #
def _check_keys(data: object, cls, where: str) -> Dict[str, object]:
    """``data`` as a dict of ``cls`` fields: an object with no unknown or missing key."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{where} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown key(s) {unknown} in {where}; expected a subset of {sorted(known)}"
        )
    required = {f.name for f in fields if f.default is MISSING and f.default_factory is MISSING}
    if required - set(data):
        raise SpecError(f"{where} is missing required key(s) {sorted(required - set(data))}")
    return dict(data)


def _items(value: object, where: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{where} must be a list, got {value!r}")
    return value


def _config_to_dict(config) -> Dict[str, object]:
    """Dataclass -> dict, mapping enums to values and processes to their dicts, dropping Nones."""
    out: Dict[str, object] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, TaskType):
            value = value.value
        elif isinstance(value, ArrivalProcess):
            value = process_to_dict(value)
        elif dataclasses.is_dataclass(value):
            value = _config_to_dict(value)
        elif isinstance(value, tuple):
            value = [process_to_dict(v) if isinstance(v, ArrivalProcess) else v for v in value]
        out[f.name] = value
    return out


def _build(cls, body: Dict[str, object], where: str):
    try:
        return cls(**body)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid {where}: {exc}") from exc


def _config_from_dict(cls, data: Mapping, where: str):
    return _build(cls, _check_keys(data, cls, where), where)


# --------------------------------------------------------------------------- #
# Arrival-process serialization
# --------------------------------------------------------------------------- #
_PROCESS_KINDS = {
    "poisson": PoissonProcess,
    "bursty": BurstyProcess,
    "diurnal": DiurnalProcess,
    "trace": TraceReplayProcess,
    "take": _Take,
    "until": _Until,
    "superpose": _Superposition,
}


def process_to_dict(process: ArrivalProcess) -> Dict[str, object]:
    """Serialize an arrival process (including combinators) to a JSON dict."""
    for kind, cls in _PROCESS_KINDS.items():
        if type(process) is cls:
            payload = _config_to_dict(process)
            payload["kind"] = kind
            return payload
    raise SpecError(
        f"arrival process {type(process).__name__} is not serializable; "
        f"use one of {sorted(_PROCESS_KINDS)}"
    )


def process_from_dict(data: Mapping) -> ArrivalProcess:
    """Build an arrival process from its JSON dict, passing every value as written."""
    if not isinstance(data, Mapping) or "kind" not in data:
        raise SpecError('an arrival process needs a {"kind": ...} object')
    kind = data["kind"]
    cls = _PROCESS_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(
            f"unknown arrival process kind {kind!r}; available: {sorted(_PROCESS_KINDS)}"
        )
    where = f"arrival process {kind!r}"
    body = _check_keys({k: v for k, v in data.items() if k != "kind"}, cls, where)
    if "inner" in body:
        body["inner"] = process_from_dict(body["inner"])
    if "processes" in body:
        body["processes"] = [
            process_from_dict(p) for p in _items(body["processes"], f"{where} processes")
        ]
    return _build(cls, body, where)


def _is_finite(process: ArrivalProcess) -> bool:
    """Whether the stream ends by itself: a trace, a take, an until, or a superpose of those."""
    if isinstance(process, _Superposition):
        return all(_is_finite(p) for p in process.processes)
    return isinstance(process, (TraceReplayProcess, _Take, _Until))


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchedulerSection:
    """Which scheduler to run: a registry name plus constructor kwargs.

    For the LLMSched family the kwargs override fields of
    :class:`~repro.core.llmsched.LLMSchedConfig` (``epsilon``,
    ``sampling_ratio``, ...); for the baselines they pass through to the
    scheduler constructor.
    """

    name: str = field(default="fcfs", metadata=text())
    kwargs: Mapping[str, object] = field(default_factory=dict, metadata=mapping())

    def __post_init__(self) -> None:
        check_fields(self, "scheduler", SpecError)
        object.__setattr__(self, "kwargs", dict(self.kwargs))
        try:
            check_scheduler_kwargs(self.name, self.kwargs)
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name}
        if self.kwargs:
            out["kwargs"] = dict(self.kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SchedulerSection":
        return cls(**_check_keys(data, cls, "scheduler section"))


@dataclass(frozen=True)
class WorkloadSection:
    """The workload: a closed-loop draw or an open-loop arrival process.

    ``mode="closed"`` mirrors :class:`~repro.workloads.mixtures.WorkloadSpec`
    (one of the paper's four mixes, materialized up front);
    ``mode="open"`` mirrors :class:`~repro.workloads.arrivals.OpenLoopSpec`
    (jobs streamed lazily from ``process``).

    Schema v2: ``token_mix`` (chat / batch / agentic) attaches per-request
    ``prompt_tokens`` / ``output_tokens`` streams to every LLM task via
    :func:`repro.workloads.serving.attach_token_model`; ``token_seed``
    (defaults to the workload ``seed``) seeds that sampling independently
    of job generation.  Absent token fields mean the legacy JCT-only model
    — bit-identical traces.
    """

    mode: str = field(default="closed", metadata=one_of("workload mode", ("closed", "open")))
    # Closed loop --------------------------------------------------------- #
    workload_type: str = field(
        default="mixed", metadata=one_of("workload_type", [w.value for w in WorkloadType])
    )
    num_jobs: int = field(default=300, metadata=integer(1))
    arrival_rate: float = field(default=0.9, metadata=positive())
    # Open loop ----------------------------------------------------------- #
    process: Optional[ArrivalProcess] = None
    application_names: Optional[Tuple[str, ...]] = field(
        default=None, metadata=text(optional=True, each=True)
    )
    max_jobs: Optional[int] = field(default=None, metadata=integer(1, optional=True))
    horizon: Optional[float] = field(default=None, metadata=positive(optional=True))
    name: str = field(default="open_loop", metadata=text())
    # Shared -------------------------------------------------------------- #
    seed: int = field(default=0, metadata=integer(0))
    # Token-level serving (schema v2) -------------------------------------- #
    token_mix: Optional[str] = field(
        default=None, metadata=one_of("token_mix", available_token_mixes(), optional=True)
    )
    token_seed: Optional[int] = field(default=None, metadata=integer(0, optional=True))

    def __post_init__(self) -> None:
        check_fields(self, "workload", SpecError)
        if self.application_names is not None:
            object.__setattr__(self, "application_names", tuple(self.application_names))
        if self.token_seed is not None and self.token_mix is None:
            raise SpecError("workload token_seed has no effect without a token_mix")
        if self.mode == "closed":
            if self.process is not None:
                raise SpecError(
                    'a closed-loop workload draws its own Poisson arrivals; use mode="open" '
                    "to run an explicit arrival process"
                )
        elif self.process is None:
            raise SpecError('an open-loop workload needs a "process" section')
        elif self.max_jobs is None and self.horizon is None and not _is_finite(self.process):
            raise SpecError(
                "an open-loop workload needs `max_jobs` or `horizon` unless its process ends "
                "by itself (a trace, take or until, or a superpose of those)"
            )

    # Constructors -------------------------------------------------------- #
    @classmethod
    def closed_loop(
        cls,
        workload_type: str = "mixed",
        num_jobs: int = 300,
        arrival_rate: float = 0.9,
        seed: int = 0,
        token_mix: Optional[str] = None,
        token_seed: Optional[int] = None,
    ) -> "WorkloadSection":
        value = workload_type.value if isinstance(workload_type, WorkloadType) else workload_type
        return cls(
            mode="closed",
            workload_type=value,
            num_jobs=num_jobs,
            arrival_rate=arrival_rate,
            seed=seed,
            token_mix=token_mix,
            token_seed=token_seed,
        )

    @classmethod
    def open_loop(
        cls,
        process: ArrivalProcess,
        application_names: Optional[Sequence[str]] = None,
        seed: int = 0,
        max_jobs: Optional[int] = None,
        horizon: Optional[float] = None,
        name: str = "open_loop",
    ) -> "WorkloadSection":
        return cls(
            mode="open",
            process=process,
            application_names=tuple(application_names) if application_names else None,
            seed=seed,
            max_jobs=max_jobs,
            horizon=horizon,
            name=name,
        )

    @classmethod
    def from_workload_spec(cls, spec: WorkloadSpec) -> "WorkloadSection":
        return cls.closed_loop(
            spec.workload_type.value, spec.num_jobs, spec.arrival_rate, spec.seed
        )

    # Resolution ---------------------------------------------------------- #
    def to_workload_spec(self) -> WorkloadSpec:
        if self.mode != "closed":
            raise SpecError("only closed-loop workload sections map to a WorkloadSpec")
        return WorkloadSpec(
            workload_type=WorkloadType(self.workload_type),
            num_jobs=self.num_jobs,
            arrival_rate=self.arrival_rate,
            seed=self.seed,
        )

    def to_open_loop_spec(self) -> OpenLoopSpec:
        if self.mode != "open":
            raise SpecError("only open-loop workload sections map to an OpenLoopSpec")
        return OpenLoopSpec(
            process=self.process,
            application_names=self.application_names,
            seed=self.seed,
            max_jobs=self.max_jobs,
            horizon=self.horizon,
            name=self.name,
        )

    # Serialization ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        if self.mode == "closed":
            out: Dict[str, object] = {
                "mode": "closed",
                "workload_type": self.workload_type,
                "num_jobs": self.num_jobs,
                "arrival_rate": self.arrival_rate,
                "seed": self.seed,
            }
        else:
            out = {
                "mode": "open",
                "process": process_to_dict(self.process),
                "name": self.name,
                "seed": self.seed,
            }
            if self.application_names is not None:
                out["application_names"] = list(self.application_names)
            if self.max_jobs is not None:
                out["max_jobs"] = self.max_jobs
            if self.horizon is not None:
                out["horizon"] = self.horizon
        if self.token_mix is not None:
            out["token_mix"] = self.token_mix
        if self.token_seed is not None:
            out["token_seed"] = self.token_seed
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSection":
        body = _check_keys(data, cls, "workload section")
        if body.get("process") is not None and not isinstance(body["process"], ArrivalProcess):
            body["process"] = process_from_dict(body["process"])
        return cls(**body)


@dataclass(frozen=True)
class ClusterSection:
    """The cluster shape: sized, explicit, heterogeneous, or federated.

    Exactly one of the single-cluster descriptions may be given:

    * ``config`` — an explicit homogeneous two-pool sizing;
    * ``pools`` — an explicit heterogeneous pool layout;
    * neither — the cluster is sized from the workload (closed-loop rate,
      or ``nominal_rate`` for open-loop processes without a ``rate``).

    ``num_shards > 1`` federates the fleet: the (explicit or sized) total
    ``config`` is split evenly across shards, jobs are routed by ``router``
    and ``migration`` enables cross-shard checkpoint rebalancing.
    """

    config: Optional[ClusterConfig] = None
    pools: Optional[Tuple[PoolSpec, ...]] = None
    num_shards: int = field(default=1, metadata=integer(1))
    router: str = field(
        default="least_loaded", metadata=one_of("job router", available_job_routers())
    )
    router_kwargs: Mapping[str, object] = field(default_factory=dict, metadata=mapping())
    migration: Optional[MigrationConfig] = None
    nominal_rate: Optional[float] = field(default=None, metadata=positive(optional=True))

    def __post_init__(self) -> None:
        check_fields(self, "cluster", SpecError)
        object.__setattr__(self, "router_kwargs", dict(self.router_kwargs))
        if self.pools is not None:
            object.__setattr__(self, "pools", tuple(self.pools))
        if self.config is not None and self.pools is not None:
            raise SpecError(
                "cluster section sets both `config` and `pools`: pass either a homogeneous "
                "ClusterConfig or an explicit heterogeneous pool layout, not both"
            )
        if self.num_shards > 1:
            if self.pools is not None:
                raise SpecError(
                    "federated clusters (num_shards > 1) are built by splitting a total "
                    "ClusterConfig; explicit `pools` layouts are per-shard and not supported"
                )
            # Build the router as the run will, so a bad kwarg fails before sizing.
            try:
                create_job_router(self.router, **self.router_kwargs)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"invalid cluster router_kwargs: {exc}") from None
        elif self.migration is not None:
            raise SpecError(
                "cluster `migration` is cross-shard rebalancing; it requires num_shards > 1"
            )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        if self.config is not None:
            out["config"] = _config_to_dict(self.config)
        if self.pools is not None:
            out["pools"] = [_config_to_dict(p) for p in self.pools]
        if self.num_shards != 1:
            out["num_shards"] = self.num_shards
        if self.num_shards != 1 or self.router != "least_loaded":
            out["router"] = self.router
        if self.router_kwargs:
            out["router_kwargs"] = dict(self.router_kwargs)
        if self.migration is not None:
            out["migration"] = _config_to_dict(self.migration)
        if self.nominal_rate is not None:
            out["nominal_rate"] = self.nominal_rate
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ClusterSection":
        body = _check_keys(data, cls, "cluster section")
        if body.get("config") is not None and not isinstance(body["config"], ClusterConfig):
            body["config"] = _config_from_dict(ClusterConfig, body["config"], "cluster config")
        if body.get("pools") is not None:
            body["pools"] = [
                p if isinstance(p, PoolSpec) else _pool_from_dict(p)
                for p in _items(body["pools"], "cluster pools")
            ]
        if body.get("migration") is not None and not isinstance(body["migration"], MigrationConfig):
            body["migration"] = _config_from_dict(
                MigrationConfig, body["migration"], "migration config"
            )
        return cls(**body)


def _pool_from_dict(data: Mapping) -> PoolSpec:
    body = _check_keys(data, PoolSpec, "pool spec")
    # JSON names the task type by its value; anything else fails the declared rule.
    value = body["task_type"]
    body["task_type"] = next((t for t in TaskType if t.value == value), value)
    return _build(PoolSpec, body, "pool spec")


@dataclass(frozen=True)
class SLOSection:
    """Per-tier serving SLOs (schema v2): tier name → TTFT/TPOT targets.

    Tiers are the ``job.priority`` values assigned by the workload's token
    mix (``interactive`` / ``batch`` / ``default``); a tier absent from the
    map falls back to ``default`` and, failing that, is unconstrained.
    Targets are in seconds and feed both goodput accounting
    (:meth:`~repro.simulator.metrics.SimulationMetrics.serving_summary`) and
    the SLO-aware scheduler's admission/deadline logic.
    """

    tiers: Mapping[str, Mapping[str, float]] = field(default_factory=dict, metadata=mapping())

    def __post_init__(self) -> None:
        check_fields(self, "slo", SpecError)
        normalized: Dict[str, Dict[str, float]] = {}
        for tier, targets in self.tiers.items():
            if not isinstance(targets, Mapping):
                raise SpecError(
                    f'SLO tier {tier!r} must map to {{"ttft": seconds, "tpot": seconds}}'
                )
            unknown = sorted(set(targets) - {"ttft", "tpot"})
            if unknown:
                raise SpecError(
                    f"unknown SLO target(s) {unknown} for tier {tier!r}; "
                    'expected a subset of ["ttft", "tpot"]'
                )
            clean: Dict[str, float] = {}
            for key, value in targets.items():
                try:
                    clean[key] = require_real(value, f"SLO {tier}.{key}", 0.0)
                except ValueError as exc:
                    raise SpecError(str(exc)) from None
                if clean[key] <= 0:
                    raise SpecError(f"SLO {tier}.{key} must be > 0, got {clean[key]}")
            if not clean:
                raise SpecError(f"SLO tier {tier!r} sets no targets; drop it or add ttft/tpot")
            normalized[tier] = clean
        if not normalized:
            raise SpecError("slo section needs at least one tier")
        object.__setattr__(self, "tiers", normalized)

    def targets(self) -> Dict[str, Dict[str, float]]:
        """A plain mutable copy (the shape SimulationMetrics.slo_targets takes)."""
        return {tier: dict(values) for tier, values in self.tiers.items()}

    def to_dict(self) -> Dict[str, object]:
        return {"tiers": self.targets()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SLOSection":
        return cls(**_check_keys(data, cls, "slo section"))


@dataclass(frozen=True)
class PlacementSection:
    """Which placement policy decides the pool a task lands on."""

    name: str = field(
        default="greedy", metadata=one_of("placement policy", available_placement_policies())
    )

    def __post_init__(self) -> None:
        check_fields(self, "placement", SpecError)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlacementSection":
        return cls(**_check_keys(data, cls, "placement section"))


@dataclass(frozen=True)
class AsyncSection:
    """Asynchronous decision-latency scheduling, declaratively.

    ``kind`` picks the latency model: ``fixed`` (``latency`` seconds per
    decision), ``per_job_linear`` (``base + per_job * pending_jobs``) or
    ``sampled`` (drawn from ``samples`` with a seeded RNG).  ``pipelined``
    and ``max_in_flight`` mirror
    :class:`~repro.simulator.async_sched.AsyncConfig`; ``max_in_flight``
    only counts when ``pipelined`` is true.
    """

    kind: str = field(
        default="fixed",
        metadata=one_of("async latency kind", ("fixed", "per_job_linear", "sampled")),
    )
    latency: float = field(default=0.0, metadata=real(0.0))
    base: float = field(default=0.0, metadata=real(0.0))
    per_job: float = field(default=0.01, metadata=real(0.0))
    samples: Tuple[float, ...] = field(default=(), metadata=real(0.0, each=True))
    seed: int = field(default=0, metadata=integer(0))
    pipelined: bool = field(default=False, metadata=boolean())
    max_in_flight: int = field(default=2, metadata=integer(1))

    def __post_init__(self) -> None:
        check_fields(self, "async", SpecError)
        object.__setattr__(self, "samples", tuple(float(v) for v in self.samples))
        if self.kind == "sampled" and not self.samples:
            raise SpecError('async kind "sampled" needs a non-empty `samples` list')
        if not self.pipelined and self.max_in_flight != 2:
            raise SpecError(
                "async field 'max_in_flight' has no effect unless 'pipelined' is true; "
                "drop it or set pipelined"
            )
        # Fields belonging to a *different* kind are rejected rather than
        # silently ignored: a grid overriding `async.latency` over a
        # "sampled" section would otherwise run identical cells.
        irrelevant = {
            "fixed": (("base", 0.0), ("per_job", 0.01), ("samples", ()), ("seed", 0)),
            "per_job_linear": (("latency", 0.0), ("samples", ()), ("seed", 0)),
            "sampled": (("latency", 0.0), ("base", 0.0), ("per_job", 0.01)),
        }
        for fname, default in irrelevant[self.kind]:
            if getattr(self, fname) != default:
                raise SpecError(
                    f"async field {fname!r} has no effect for kind {self.kind!r}; "
                    "drop it or switch the kind"
                )

    def to_async_config(self) -> AsyncConfig:
        if self.kind == "per_job_linear":
            latency = PerJobLinearLatency(base=self.base, per_job=self.per_job)
        elif self.kind == "sampled":
            latency = SampledLatency(list(self.samples), seed=self.seed)
        else:
            latency = self.latency
        return AsyncConfig(
            latency=latency, pipelined=self.pipelined, max_in_flight=self.max_in_flight
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        if self.kind == "fixed":
            out["latency"] = self.latency
        elif self.kind == "per_job_linear":
            out["base"] = self.base
            out["per_job"] = self.per_job
        else:
            out["samples"] = list(self.samples)
            out["seed"] = self.seed
        if self.pipelined:
            out["pipelined"] = True
        if self.max_in_flight != 2:
            out["max_in_flight"] = self.max_in_flight
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "AsyncSection":
        return cls(**_check_keys(data, cls, "async section"))


# --------------------------------------------------------------------------- #
# Settings deserialization (ExperimentSettings + nested LLMSchedConfig;
# serialization is plain _config_to_dict, which recurses into llmsched)
# --------------------------------------------------------------------------- #
def _settings_from_dict(data: Mapping) -> ExperimentSettings:
    body = _check_keys(data, ExperimentSettings, "settings section")
    if "llmsched" in body and not isinstance(body["llmsched"], LLMSchedConfig):
        body["llmsched"] = _config_from_dict(LLMSchedConfig, body["llmsched"], "llmsched config")
    return _build(ExperimentSettings, body, "settings section")


# --------------------------------------------------------------------------- #
# Schema migration
# --------------------------------------------------------------------------- #
def _upcast_v1(data: Mapping) -> Dict[str, object]:
    """Upcast a schema_version-1 document to the v2 shape.

    v1 is a strict subset of v2 (v2 added the ``slo`` section, workload
    ``token_mix``/``token_seed``, and the pool ``role`` field), so the upcast
    is a re-stamp — but a v1 document that smuggles in v2-only constructs is
    mislabelled, and we reject it rather than guess what the author meant.
    """
    offenders = []
    if data.get("slo") is not None:
        offenders.append("top-level 'slo' section")
    workload = data.get("workload")
    if isinstance(workload, Mapping):
        for key in ("token_mix", "token_seed"):
            if workload.get(key) is not None:
                offenders.append(f"workload.{key}")
    cluster = data.get("cluster")
    if isinstance(cluster, Mapping):
        pools = cluster.get("pools")
        if isinstance(pools, Sequence):
            for i, pool in enumerate(pools):
                if isinstance(pool, Mapping) and pool.get("role") is not None:
                    offenders.append(f"cluster.pools[{i}].role")
    if offenders:
        raise SpecError(
            f"schema_version 1 spec uses v2-only construct(s): {offenders}; "
            f"stamp the document schema_version {SCHEMA_VERSION} instead"
        )
    out = dict(data)
    out["schema_version"] = SCHEMA_VERSION
    return out


# --------------------------------------------------------------------------- #
# The spec tree
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment scenario (see module docstring)."""

    scheduler: SchedulerSection = field(default_factory=SchedulerSection)
    workload: WorkloadSection = field(default_factory=WorkloadSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    placement: Optional[PlacementSection] = None
    async_: Optional[AsyncSection] = None
    autoscaler: Optional[AutoscalerConfig] = None
    slo: Optional[SLOSection] = None
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    schema_version: int = field(default=SCHEMA_VERSION, metadata=integer(1))

    def __post_init__(self) -> None:
        check_fields(self, error=SpecError)
        self.validate()

    def validate(self) -> "ScenarioSpec":
        """Cross-section constraints; section-local rules run per section."""
        if self.schema_version != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported spec schema_version {self.schema_version!r}; this build "
                f"reads version {SCHEMA_VERSION} (v1 documents are upcast automatically "
                "by ScenarioSpec.from_dict)"
            )
        if self.cluster.num_shards > 1:
            if self.workload.mode != "open":
                raise SpecError(
                    "federated clusters (num_shards > 1) are fed by an open-loop arrival "
                    'stream; use a workload section with mode="open"'
                )
            if self.autoscaler is not None:
                raise SpecError(
                    "autoscaling and federation cannot be combined yet: the autoscaler "
                    "resizes one cluster's pools, a federated fleet re-splits a fixed "
                    "total config (drop the autoscaler section or set num_shards=1)"
                )
            if self.placement is not None:
                raise SpecError(
                    "per-shard placement policies are not supported yet; drop the "
                    "placement section or set num_shards=1"
                )
            if self.workload.token_mix is not None:
                raise SpecError(
                    "token-level serving metrics are single-cluster for now: "
                    "FederationMetrics does not aggregate per-request token streams "
                    "(drop workload.token_mix or set num_shards=1)"
                )
        return self

    # Serialization ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema_version": self.schema_version,
            "scheduler": self.scheduler.to_dict(),
            "workload": self.workload.to_dict(),
        }
        cluster = self.cluster.to_dict()
        if cluster:
            out["cluster"] = cluster
        if self.placement is not None:
            out["placement"] = self.placement.to_dict()
        if self.async_ is not None:
            out["async"] = self.async_.to_dict()
        if self.autoscaler is not None:
            out["autoscaler"] = _config_to_dict(self.autoscaler)
        if self.slo is not None:
            out["slo"] = self.slo.to_dict()
        out["settings"] = _config_to_dict(self.settings)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise SpecError("a scenario spec must be a JSON object")
        # JSON's true and 1.0 equal 1: only the int 1 marks a v1 document, and
        # the declared rule rejects the others by name.
        version = data.get("schema_version", SCHEMA_VERSION)
        if type(version) is int and version == 1:
            data = _upcast_v1(data)
        known = {"async" if f.name == "async_" else f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown top-level key(s) {unknown} in scenario spec; "
                f"expected a subset of {sorted(known)}"
            )
        autoscaler = data.get("autoscaler")
        if autoscaler is not None and not isinstance(autoscaler, AutoscalerConfig):
            autoscaler = _config_from_dict(AutoscalerConfig, autoscaler, "autoscaler section")
        return cls(
            scheduler=SchedulerSection.from_dict(data.get("scheduler", {})),
            workload=WorkloadSection.from_dict(data.get("workload", {})),
            cluster=ClusterSection.from_dict(data.get("cluster", {})),
            placement=(
                PlacementSection.from_dict(data["placement"])
                if data.get("placement") is not None
                else None
            ),
            async_=(
                AsyncSection.from_dict(data["async"]) if data.get("async") is not None else None
            ),
            autoscaler=autoscaler,
            slo=(SLOSection.from_dict(data["slo"]) if data.get("slo") is not None else None),
            settings=_settings_from_dict(data.get("settings", {})),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def content_hash(self) -> str:
        """SHA-256 of the *canonical* serialized tree: the spec's identity.

        The hash is computed over :meth:`to_dict` rendered as canonical JSON
        (recursively sorted keys, fixed separators, shortest-round-trip float
        repr — see :mod:`repro.utils.canonical`), so equal specs hash equally
        regardless of dict insertion order or the formatting of any JSON file
        they round-tripped through: ``from_dict(to_dict(s)).content_hash()
        == s.content_hash()`` is a tested property.  This is the ``spec_hash``
        every :mod:`repro.store` record carries as provenance.
        """
        return content_hash(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # Convenience --------------------------------------------------------- #
    def with_scheduler(self, name: str, **kwargs) -> "ScenarioSpec":
        return replace(self, scheduler=SchedulerSection(name=name, kwargs=kwargs))


def with_overrides(spec: ScenarioSpec, overrides: Mapping[str, object]) -> ScenarioSpec:
    """A copy of ``spec`` with dotted-path overrides applied.

    Paths address the *serialized* tree (``"workload.arrival_rate"``,
    ``"scheduler.name"``, ``"async.latency"``, ``"cluster.num_shards"``), so
    every override value must be JSON-representable; intermediate objects
    (e.g. an ``async`` section) are created on demand with their defaults.
    This is the substrate of :func:`repro.api.run_grid`'s override axes.
    """
    data = spec.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        node = data
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return ScenarioSpec.from_dict(data)
