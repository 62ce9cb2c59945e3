"""Offline preparation shared by every experiment entry point.

Settings, priors/profiler construction and cluster sizing: everything a
run needs before the simulation starts.  ``build_priors``,
``build_profiler`` and ``size_cluster`` take any applications; the
``prepared_*`` functions serve the default applications' artifacts from
one per-process memo, which is how :func:`repro.api.run` gets them (it
hands them the templates it built for its jobs, for use on a miss).
The module sits below the spec tree (:mod:`repro.api.spec` embeds
:class:`ExperimentSettings`) and the dispatcher, so both import it
without a cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.llmsched import LLMSchedConfig
from repro.core.profiler import BayesianProfiler
from repro.dag.application import ApplicationTemplate
from repro.dag.stage import StageType
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.registry import PAPER_BASELINES
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SNAPSHOT_POLICY
from repro.simulator.latency import DecodingLatencyProfile
from repro.utils.rng import make_rng
from repro.utils.validation import check_fields, integer, real, within

__all__ = [
    "PAPER_BASELINES",
    "ExperimentSettings",
    "build_priors",
    "build_profiler",
    "prepared_cluster",
    "prepared_priors",
    "prepared_profiler",
    "size_cluster",
    "split_cluster_config",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Settings shared by every experiment.

    ``target_load`` plays the role of the paper's manually-configured
    cluster load: executor pools are sized so the offered work at the
    configured arrival rate matches roughly ``target_load`` of the pool
    capacity.  The default keeps the cluster close to saturation during the
    arrival period, which reproduces the paper's regime where the average
    JCT grows with the number of jobs and scheduling order matters.
    """

    target_load: float = field(default=1.0, metadata=within(0, 2, open_low=True))
    max_batch_size: int = field(default=4, metadata=integer(1))
    latency_slope: float = field(default=0.06, metadata=real(0.0))
    profile_jobs: int = field(default=150, metadata=integer(2))
    prior_samples: int = field(default=100, metadata=integer(1))
    profiler_seed: int = field(default=77, metadata=integer(0))
    #: How async decisions are isolated from live mutations: "cow" hands out
    #: copy-on-write context snapshots, "deepcopy" the golden-oracle wholesale
    #: copy (bit-identical, O(jobs x stages x tasks) slower per pass).
    snapshot_policy: str = field(default="cow", metadata=SNAPSHOT_POLICY)
    llmsched: LLMSchedConfig = field(default_factory=LLMSchedConfig)

    def __post_init__(self) -> None:
        check_fields(self)


def build_priors(
    applications: Mapping[str, ApplicationTemplate],
    settings: Optional[ExperimentSettings] = None,
) -> ApplicationPriors:
    settings = settings or ExperimentSettings()
    return ApplicationPriors.from_applications(
        applications.values(), n_samples=settings.prior_samples, seed=settings.profiler_seed
    )


def build_profiler(
    applications: Mapping[str, ApplicationTemplate],
    settings: Optional[ExperimentSettings] = None,
) -> BayesianProfiler:
    settings = settings or ExperimentSettings()
    profiler = BayesianProfiler()
    profiler.fit(
        applications.values(),
        n_profile_jobs=settings.profile_jobs,
        seed=settings.profiler_seed,
    )
    return profiler


def size_cluster(
    arrival_rate: float,
    application_names: Sequence[str],
    applications: Mapping[str, ApplicationTemplate],
    settings: Optional[ExperimentSettings] = None,
) -> ClusterConfig:
    """Size executor pools so the cluster runs at roughly ``target_load``.

    The offered load is estimated from the applications' mean LLM / regular
    work per job and the arrival rate; one LLM executor serving a batch of
    ``B`` requests completes up to ``B / latency(B)`` batch-size-1 seconds of
    work per second.
    """
    settings = settings or ExperimentSettings()
    rng = make_rng(settings.profiler_seed + 1)
    llm_work_per_job: List[float] = []
    regular_work_per_job: List[float] = []
    for name in application_names:
        for draw in applications[name].sample_draws(rng, 30):
            work = [(s.spec.stage_type, s.duration) for s in draw.stages]
            llm_work_per_job.append(sum(d for kind, d in work if kind is StageType.LLM))
            regular_work_per_job.append(sum(d for kind, d in work if kind is StageType.REGULAR))

    mean_llm = float(np.mean(llm_work_per_job))
    mean_regular = float(np.mean(regular_work_per_job))
    profile = DecodingLatencyProfile(slope=settings.latency_slope)
    llm_capacity = settings.max_batch_size / profile.latency(settings.max_batch_size)

    llm_rate = arrival_rate * mean_llm
    regular_rate = arrival_rate * mean_regular
    num_llm = max(1, int(round(llm_rate / (settings.target_load * llm_capacity))))
    # Regular executors (containers) are cheap compared to GPU-backed LLM
    # executors, so they get ~25% headroom: contention concentrates on the
    # LLM pool, which is the regime the paper studies.
    num_regular = max(2, int(np.ceil(regular_rate / (0.75 * settings.target_load))))
    return ClusterConfig(
        num_regular_executors=num_regular,
        num_llm_executors=num_llm,
        max_batch_size=settings.max_batch_size,
        latency_slope=settings.latency_slope,
    )


# --------------------------------------------------------------------------- #
# The offline-artifact memo
# --------------------------------------------------------------------------- #
# Eight entries cover one paper figure (one profile, one priors, four
# sizings); a fitted default profile holds about 1.1 MiB, the others bytes.
_MEMO_SIZE = 8
_memo: "OrderedDict[Tuple[object, ...], Any]" = OrderedDict()


def _built(
    build: Callable,
    applications: Mapping[str, ApplicationTemplate],
    settings: ExperimentSettings,
    *args: object,
) -> Any:
    """``build(*args, applications, settings)``, once per process, least recently used out.

    The key is ``(build, settings, *args)``: ``settings`` holds only the
    fields ``build`` reads, the rest at their defaults, so the key is
    exactly the artifact's inputs.  ``applications`` are the default
    templates the caller already built for its jobs; only a miss reads
    them, and the memo does not keep them.
    """
    key = (build, settings, *args)
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    artifact = _memo[key] = build(*args, applications, settings)
    if len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)
    return artifact


def _only(settings: ExperimentSettings, *names: str) -> ExperimentSettings:
    """Default settings but for the named fields, copied from ``settings``."""
    return ExperimentSettings(**{name: getattr(settings, name) for name in names})


def prepared_priors(
    settings: ExperimentSettings, applications: Mapping[str, ApplicationTemplate]
) -> ApplicationPriors:
    """The default applications' priors for ``settings``, from the memo."""
    return _built(build_priors, applications, _only(settings, "prior_samples", "profiler_seed"))


def prepared_profiler(
    settings: ExperimentSettings, applications: Mapping[str, ApplicationTemplate]
) -> BayesianProfiler:
    """A profiler over the memo's default-application profiles fitted for ``settings``.

    Each caller gets its own query caches: kept across the runs of a
    process, they only grow.
    """
    fitted = _built(build_profiler, applications, _only(settings, "profile_jobs", "profiler_seed"))
    return fitted.with_empty_caches()


def prepared_cluster(
    arrival_rate: float,
    application_names: Sequence[str],
    settings: ExperimentSettings,
    applications: Mapping[str, ApplicationTemplate],
) -> ClusterConfig:
    """:func:`size_cluster` over the default applications, from the memo."""
    read = ("target_load", "max_batch_size", "latency_slope", "profiler_seed")
    return _built(
        size_cluster,
        applications,
        _only(settings, *read),
        float(arrival_rate),
        tuple(application_names),
    )


def split_cluster_config(config: ClusterConfig, num_shards: int) -> List[ClusterConfig]:
    """Divide one total cluster sizing into ``num_shards`` shard sizings.

    The executor totals are preserved (early shards take the remainder),
    so a shard-count sweep compares routing and isolation on *identical
    total hardware*.  Every shard needs at least one executor of each
    type; shard counts beyond that are rejected rather than silently
    growing the fleet.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if config.num_regular_executors < num_shards or config.num_llm_executors < num_shards:
        raise ValueError(
            f"cannot split {config.num_regular_executors} regular / "
            f"{config.num_llm_executors} LLM executors across {num_shards} shards "
            "(every shard needs at least one of each)"
        )
    regular, reg_rem = divmod(config.num_regular_executors, num_shards)
    llm, llm_rem = divmod(config.num_llm_executors, num_shards)
    configs: List[ClusterConfig] = []
    for index in range(num_shards):
        configs.append(
            ClusterConfig(
                num_regular_executors=regular + (1 if index < reg_rem else 0),
                num_llm_executors=llm + (1 if index < llm_rem else 0),
                max_batch_size=config.max_batch_size,
                latency_slope=config.latency_slope,
            )
        )
    return configs
