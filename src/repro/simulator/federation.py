"""Sharded multi-cluster federation: route jobs, step shards, migrate work.

The paper evaluates one fixed-size cluster; a production fleet is many
clusters (*shards*) behind a routing layer.  This module adds that layer
on top of the existing engine without forking it:

* :class:`FederatedCluster` owns N named :class:`~repro.simulator.cluster.
  Cluster` shards plus a pluggable :class:`JobRouter` (hash, least-loaded,
  type-affinity — mirroring the ``PlacementPolicy`` factory pattern).
* :class:`FederatedSimulationEngine` steps one full
  :class:`~repro.simulator.engine.SimulationEngine` per shard through a
  **shared event clock**: every fleet iteration runs the scheduling pass of
  only the shards whose state changed, advances the global clock to the
  earliest event across shards + the global arrival stream, and runs the
  completion pass of the due shards.  With a single shard the driver
  degenerates to exactly the single-engine loop, so a 1-shard federation
  reproduces the golden traces **bit for bit**.
* Cross-shard **migration** reuses the PR 2 checkpoint machinery: at a
  fixed check interval, when the hottest shard's load exceeds the coldest
  shard's by more than a threshold, whole jobs are moved — every running
  task is checkpoint-preempted on the hot shard (progress conserved), the
  job is re-admitted on the cold shard, and the migration cost is metered
  exactly once per moved job in the fleet metrics.

Per-shard arrivals are fed through a refillable queue: the federation
holds the global arrival stream, consults the router when the clock
reaches each job's arrival time, and pushes the job into the owning
shard's feed; the shard engine admits it through its ordinary arrival
path, so duplicate detection, degenerate-job completion and scheduler
arrival hooks all behave exactly as in a standalone run.
"""

from __future__ import annotations

import abc
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dag.job import Job
from repro.dag.task import TaskType
from repro.schedulers.base import Scheduler
from repro.simulator.async_sched import AsyncSchedulerBackend
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SimulationConfig, SimulationEngine, validate_arrival_order
from repro.simulator.metrics import SimulationMetrics
from repro.utils.validation import check_fields, integer, positive, real, require_real

__all__ = [
    "JobRouter",
    "HashRouter",
    "LeastLoadedRouter",
    "StaleLeastLoadedRouter",
    "TypeAffinityRouter",
    "available_job_routers",
    "create_job_router",
    "MigrationConfig",
    "MigrationEvent",
    "FederatedCluster",
    "FederationMetrics",
    "FederatedSimulationEngine",
]

_EPS = 1e-9


# --------------------------------------------------------------------------- #
# Routers
# --------------------------------------------------------------------------- #
class JobRouter(abc.ABC):
    """Maps an arriving job onto one shard of the fleet.

    Routing happens when the fleet clock reaches the job's arrival time,
    so load-aware routers see the shard states of that instant.  Routers
    must be deterministic: the same shard states and job always pick the
    same shard (ties broken by shard index).  The built-in routers only
    consider shards that can *ever* serve the job
    (:meth:`FederatedShard.can_serve` — a regular-only shard must not
    receive a job with an LLM stage); on a homogeneous fleet the
    capability filter keeps every shard and changes nothing.
    """

    #: Human-readable name used in experiment reports and factories.
    name: str = "base"

    @abc.abstractmethod
    def select_shard(self, shards: Sequence["FederatedShard"], job: Job) -> int:
        """Index of the shard ``job`` should be admitted to."""

    def observe(self, shards: Sequence["FederatedShard"], now: float) -> None:
        """Periodic fleet-state observation hook (default: no-op).

        The federated engine calls this at every routing opportunity;
        routers that keep *cached* views of shard state (e.g.
        :class:`StaleLeastLoadedRouter`) refresh them here at their own
        cadence, so ``select_shard`` can read a deliberately stale view.
        """

    def reset(self) -> None:
        """Drop any cached view so the router can drive a fresh run."""

    @staticmethod
    def _capable(shards: Sequence["FederatedShard"], job: Job) -> List[int]:
        """Shard indices able to serve the job (all indices if none are:
        an impossible job then stalls loudly instead of silently skewing
        the capable shards' load)."""
        indices = [i for i, shard in enumerate(shards) if shard.can_serve(job)]
        return indices or list(range(len(shards)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class HashRouter(JobRouter):
    """Stable hash of the job id — stateless, load-oblivious, sticky.

    Uses CRC-32 (not Python's randomized ``hash``) so the same job id maps
    to the same shard across runs and processes.  With one shard every job
    maps to shard 0, which is what makes the 1-shard federation reduce to
    the single-cluster engine.
    """

    name = "hash"

    def select_shard(self, shards: Sequence["FederatedShard"], job: Job) -> int:
        capable = self._capable(shards, job)
        return capable[zlib.crc32(job.job_id.encode("utf-8")) % len(capable)]


class LeastLoadedRouter(JobRouter):
    """Capable shard with the lowest jobs-per-slot load (ties by index).

    Load counts jobs already admitted *plus* jobs routed but not yet
    admitted, normalized by the shard's total slot capacity, so unequal
    shard sizes are compared fairly.
    """

    name = "least_loaded"

    def select_shard(self, shards: Sequence["FederatedShard"], job: Job) -> int:
        return min(self._capable(shards, job), key=lambda i: (shards[i].load(), i))


class StaleLeastLoadedRouter(JobRouter):
    """Least-loaded routing against a *periodically refreshed* load view.

    A real routing tier does not read shard state synchronously — it
    consumes load reports published every ``view_refresh_interval``
    seconds.  This router models that: :meth:`observe` (called by the
    federated engine at every routing opportunity) re-reads the true shard
    loads only when the last refresh is at least the interval old, and
    :meth:`select_shard` routes against the cached snapshot.  With
    ``view_refresh_interval=0`` every observation refreshes and the router
    degenerates to :class:`LeastLoadedRouter`; growing the interval lets
    experiments quantify how much load-aware routing's advantage survives
    staleness (arrival bursts within one window all pile onto the shard
    that *looked* coldest when the window opened).
    """

    name = "stale_least_loaded"

    def __init__(self, view_refresh_interval: float = 30.0) -> None:
        # A NaN interval would fail every comparison in observe() and refresh
        # on every call, silently acting as least_loaded.
        self.view_refresh_interval = require_real(view_refresh_interval, "view_refresh_interval", 0.0)
        self._loads: Optional[List[float]] = None
        self._last_refresh: Optional[float] = None

    def reset(self) -> None:
        self._loads = None
        self._last_refresh = None

    def observe(self, shards: Sequence["FederatedShard"], now: float) -> None:
        if (
            self._last_refresh is not None
            and now - self._last_refresh < self.view_refresh_interval - _EPS
        ):
            return
        self._loads = [shard.load() for shard in shards]
        self._last_refresh = now

    def select_shard(self, shards: Sequence["FederatedShard"], job: Job) -> int:
        capable = self._capable(shards, job)
        loads = self._loads
        if loads is None or len(loads) != len(shards):
            # No published view yet (router used outside the engine's
            # observe loop): fall back to the live load, refreshing nothing.
            return min(capable, key=lambda i: (shards[i].load(), i))
        return min(capable, key=lambda i: (loads[i], i))


class TypeAffinityRouter(LeastLoadedRouter):
    """Route jobs toward shards with free capacity of their dominant type.

    A job whose LLM stages carry more than half its total work prefers the
    capable shard with the most free LLM slots (and vice versa for
    regular-heavy jobs); among shards tied on free capacity the
    least-loaded wins.  When no shard has a free slot of the preferred
    type the router falls back to plain least-loaded, so jobs are never
    stranded.
    """

    name = "type_affinity"

    def select_shard(self, shards: Sequence["FederatedShard"], job: Job) -> int:
        llm_work = sum(s.duration for s in job.stages.values() if s.is_llm)  # repro: REP005-exempt -- insertion-ordered stage dict; sorting would change float-summation order and the golden traces
        total_work = sum(s.duration for s in job.stages.values())  # repro: REP005-exempt -- insertion-ordered stage dict; sorting would change float-summation order and the golden traces
        dominant = TaskType.LLM if llm_work > 0.5 * total_work else TaskType.REGULAR
        capable = self._capable(shards, job)
        best = max(capable, key=lambda i: (shards[i].free_slots(dominant), -shards[i].load(), -i))
        if shards[best].free_slots(dominant) > 0:
            return best
        return super().select_shard(shards, job)


_ROUTERS: Dict[str, Callable[..., JobRouter]] = {
    "hash": HashRouter,
    "least_loaded": LeastLoadedRouter,
    "stale_least_loaded": StaleLeastLoadedRouter,
    "type_affinity": TypeAffinityRouter,
}


def available_job_routers() -> list:
    """Names accepted by :func:`create_job_router`."""
    return sorted(_ROUTERS)


def create_job_router(name: str, **kwargs) -> JobRouter:
    """Instantiate a job router by name.

    ``kwargs`` pass through to the router's constructor (e.g.
    ``create_job_router("stale_least_loaded", view_refresh_interval=60.0)``).
    """
    try:
        factory = _ROUTERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown job router {name!r}; available: {available_job_routers()}"
        ) from None
    return factory(**kwargs)


# --------------------------------------------------------------------------- #
# Migration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MigrationConfig:
    """Cross-shard rebalancing knobs for :class:`FederatedSimulationEngine`.

    Every ``interval`` seconds the fleet compares the hottest and coldest
    shard's load (jobs per slot); when the gap exceeds
    ``imbalance_threshold`` up to ``max_migrations_per_check`` jobs move
    from hot to cold.  ``cost`` is **pure accounting**: the bookkeeping
    price of one migration (e.g. checkpoint transfer seconds), metered
    once per migrated job in the fleet metrics so operators can weigh
    rebalancing against its overhead — it does *not* delay the migrated
    job inside the simulation (cost-aware migration policies are a named
    next step in the ROADMAP).
    """

    interval: float = field(default=60.0, metadata=positive())
    imbalance_threshold: float = field(default=0.25, metadata=positive())
    max_migrations_per_check: int = field(default=4, metadata=integer(1))
    cost: float = field(default=0.0, metadata=real(0.0))

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class MigrationEvent:
    """One applied job migration (recorded in the fleet metrics)."""

    time: float
    job_id: str
    source: str
    target: str
    checkpointed_tasks: int
    remaining_work: float
    cost: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "job_id": self.job_id,
            "source": self.source,
            "target": self.target,
            "checkpointed_tasks": self.checkpointed_tasks,
            "remaining_work": self.remaining_work,
            "cost": self.cost,
        }


# --------------------------------------------------------------------------- #
# Fleet composition
# --------------------------------------------------------------------------- #
class _ShardFeed:
    """Refillable arrival iterator: the federation pushes, the engine pulls.

    Unlike a generator, raising ``StopIteration`` is not terminal — the
    federation keeps pushing routed jobs between fleet iterations and the
    owning engine re-pulls its lookahead.
    """

    def __init__(self) -> None:
        self._queue: deque = deque()

    def push(self, job: Job) -> None:
        self._queue.append(job)

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Job]:
        return self

    def __next__(self) -> Job:
        if not self._queue:
            raise StopIteration
        return self._queue.popleft()


class FederatedShard:
    """One shard: a cluster, its engine, and the routing read surface."""

    def __init__(self, index: int, name: str, cluster: Cluster) -> None:
        self.index = index
        self.name = name
        self.cluster = cluster
        self.feed = _ShardFeed()
        self.engine: Optional[SimulationEngine] = None
        #: Cached earliest shard-local event time (completions, async
        #: decisions); recomputed at every scheduling pass of the shard.
        self.next_event: Optional[float] = None

    # Routing read surface ------------------------------------------------ #
    def total_slots(self) -> int:
        return self.cluster.total_capacity()

    def free_slots(self, task_type: TaskType) -> int:
        return self.cluster.free_slots(task_type)

    def can_serve(self, job: Job) -> bool:
        """Whether this shard has pools for every task type ``job`` needs.

        Shards may be heterogeneous down to the task-type level (e.g. a
        regular-only shard); routers and the migrator must never place a
        job where one of its stages can never run.
        """
        for stage in job.stages.values():
            task_type = TaskType.LLM if stage.is_llm else TaskType.REGULAR
            if not self.cluster.pools_for(task_type):
                return False
        return True

    def num_jobs(self) -> int:
        """Jobs admitted and unfinished, plus routed-but-not-yet-admitted.

        Routed jobs wait in the feed until the shard's next scheduling pass,
        which admits them all (each was due when routed).
        """
        active = self.engine.num_active_jobs if self.engine is not None else 0
        return active + len(self.feed)

    def load(self) -> float:
        """Jobs per slot — the routing and migration imbalance signal."""
        return self.num_jobs() / max(1, self.total_slots())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FederatedShard({self.name!r}, jobs={self.num_jobs()}, slots={self.total_slots()})"


class FederatedCluster:
    """N named cluster shards behind a pluggable job router."""

    def __init__(
        self,
        shards: Sequence[Tuple[str, Cluster]],
        router: Optional[JobRouter] = None,
    ) -> None:
        if not shards:
            raise ValueError("a federation needs at least one shard")
        names = [name for name, _ in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        self.shards: List[FederatedShard] = [
            FederatedShard(index, name, cluster) for index, (name, cluster) in enumerate(shards)
        ]
        self.router = router or HashRouter()

    def __len__(self) -> int:
        return len(self.shards)


# --------------------------------------------------------------------------- #
# Fleet metrics
# --------------------------------------------------------------------------- #
@dataclass
class FederationMetrics:
    """Per-shard metrics plus fleet-level aggregation."""

    workload_name: str = ""
    router_name: str = ""
    shards: Dict[str, SimulationMetrics] = field(default_factory=dict)
    migration_events: List[Dict[str, object]] = field(default_factory=list)
    num_migrations: int = 0
    migrated_work: float = 0.0
    migration_cost: float = 0.0
    #: Fleet driver iterations (global scheduling points).
    num_fleet_iterations: int = 0
    makespan: float = 0.0

    def record_migration(self, event: MigrationEvent) -> None:
        self.migration_events.append(event.to_dict())
        self.num_migrations += 1
        self.migrated_work += event.remaining_work
        self.migration_cost += event.cost

    # Fleet-level views ---------------------------------------------------- #
    @property
    def job_completion_times(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for metrics in self.shards.values():
            merged.update(metrics.job_completion_times)
        return merged

    @property
    def average_jct(self) -> float:
        jcts = self.job_completion_times
        if not jcts:
            return 0.0
        return float(sum(jcts.values()) / len(jcts))

    @property
    def num_events(self) -> int:
        """Aggregate shard scheduling points (throughput numerator)."""
        return sum(m.num_events for m in self.shards.values())

    @property
    def num_tasks_executed(self) -> int:
        return sum(m.num_tasks_executed for m in self.shards.values())

    @property
    def num_preemptions(self) -> int:
        return sum(m.num_preemptions for m in self.shards.values())

    @property
    def utilization(self) -> Dict[str, float]:
        """Fleet busy fractions, weighted by each shard's executor counts
        (a property, mirroring ``SimulationMetrics.utilization``)."""
        busy: Dict[str, float] = {"regular": 0.0, "llm": 0.0}
        weight: Dict[str, float] = {"regular": 0.0, "llm": 0.0}
        for metrics in self.shards.values():
            for key in busy:
                share = metrics.utilization.get(key)
                if share is None:
                    continue
                executors = metrics.executor_counts.get(key, 0)
                busy[key] += share * executors
                weight[key] += executors
        return {key: (busy[key] / weight[key] if weight[key] else 0.0) for key in busy}

    def to_dict(self) -> Dict[str, object]:
        jcts = self.job_completion_times
        return {
            "workload": self.workload_name,
            "router": self.router_name,
            "num_shards": len(self.shards),
            "num_jobs": len(jcts),
            "average_jct": self.average_jct,
            "makespan": self.makespan,
            "num_events": self.num_events,
            "num_fleet_iterations": self.num_fleet_iterations,
            "num_tasks_executed": self.num_tasks_executed,
            "num_preemptions": self.num_preemptions,
            "num_migrations": self.num_migrations,
            "migrated_work": self.migrated_work,
            "migration_cost": self.migration_cost,
            "utilization": self.utilization,
        }


# --------------------------------------------------------------------------- #
# The federated driver
# --------------------------------------------------------------------------- #
class FederatedSimulationEngine:
    """Steps N shard engines through one shared event clock.

    ``schedulers`` is a zero-argument factory, called once per shard:
    schedulers carry state, so shards must not share one, and a factory
    that returns the same instance twice is rejected.

    The driver steps every shard it touches through the shard engine's own
    passes — :meth:`~SimulationEngine.schedule_pass`,
    :meth:`~SimulationEngine.sync_clock` and
    :meth:`~SimulationEngine.completion_pass`, the phases of
    :meth:`SimulationEngine.step` — and only adds two fleet-level event
    sources: the global arrival stream (routed through the federation's
    :class:`JobRouter` at admission time) and the optional migration check.
    A 1-shard fleet therefore produces the same trace as a standalone
    engine, bit for bit.
    """

    def __init__(
        self,
        jobs: Iterable[Job],
        schedulers: Callable[[], Scheduler],
        federation: FederatedCluster,
        config: Optional[SimulationConfig] = None,
        workload_name: str = "",
        migration: Optional[MigrationConfig] = None,
        async_backend_factory: Optional[Callable[[], AsyncSchedulerBackend]] = None,
    ) -> None:
        self.federation = federation
        self.config = config or SimulationConfig()
        self.migration = migration
        federation.router.reset()  # routers reused across runs drop stale views
        shards = federation.shards
        instances = [schedulers() for _ in shards]
        if len(set(map(id, instances))) != len(instances):
            raise ValueError("each shard needs its own scheduler instance")
        self.metrics = FederationMetrics(
            workload_name=workload_name,
            router_name=federation.router.name,
        )
        for shard, scheduler in zip(shards, instances, strict=True):
            shard.engine = SimulationEngine(
                shard.feed,
                scheduler,
                cluster=shard.cluster,
                config=self.config,
                workload_name=workload_name,
                async_backend=(
                    async_backend_factory() if async_backend_factory is not None else None
                ),
            )

        if isinstance(jobs, Sequence):
            if not jobs:
                raise ValueError("cannot simulate an empty job list")
            ordered = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
            self._global_arrivals: Iterator[Job] = iter(ordered)
        else:
            self._global_arrivals = iter(jobs)
        self._time = 0.0
        self._iterations = 0
        self._seen_job_ids: Set[str] = set()
        self._last_arrival_time = 0.0
        self._next_global: Optional[Job] = None
        self._pull_global()
        self._next_migration_check = migration.interval if migration is not None else None
        # Shards whose state changed since their last scheduling pass; all
        # shards start due so the first iteration initializes every view.
        self._due: Set[int] = set(range(len(shards)))

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def current_time(self) -> float:
        return self._time

    def run(self) -> FederationMetrics:
        """Execute the workload fleet-wide and return aggregated metrics."""
        while self.step():
            pass
        return self.finalize()

    def step(self) -> bool:
        """Advance the fleet through one shared-clock scheduling point.

        Returns ``False`` once no shard can make progress (deadlocks
        raise).  Mirrors :meth:`SimulationEngine.step`; :meth:`run` steps
        to completion and finalizes.
        """
        eps = self.config.eps
        shards = self.federation.shards
        if self._next_global is None and not any(shard.num_jobs() for shard in shards):
            return False
        self._iterations += 1
        if self._iterations > self.config.max_iterations:
            raise RuntimeError("federated simulation exceeded max_iterations; likely a livelock")
        if self._time > self.config.max_simulated_time:
            raise RuntimeError("federated simulation exceeded max_simulated_time")

        # Scheduling pass on every shard whose state changed.
        for index in sorted(self._due):
            shard = shards[index]
            shard.engine.sync_clock(self._time)
            shard.next_event = shard.engine.schedule_pass()
        self._due.clear()

        next_time = self._next_fleet_event()
        if next_time is None:
            self._check_for_deadlock()
            return False
        self._time = max(self._time, next_time)

        # Route global arrivals due now; owning shards become due.
        self._route_due(self._time)

        # Completions on shards whose clock hit.
        for shard in shards:
            if shard.next_event is None or shard.next_event > self._time + eps:
                continue
            shard.engine.sync_clock(self._time)
            shard.engine.completion_pass()
            self._due.add(shard.index)

        if (
            self._next_migration_check is not None
            and self._time + eps >= self._next_migration_check
        ):
            self._run_migration(self._time)
        return True

    def finalize(self) -> FederationMetrics:
        """Fill the fleet-level metrics and finalize every shard engine.

        Shard utilisation is measured over the *fleet* horizon: a shard that
        drained early would otherwise report its busy fraction over a
        shorter window, overstating the aggregate.  (With one shard the
        horizons coincide, so the single-engine numbers are reproduced.)
        """
        self.metrics.num_fleet_iterations = self._iterations
        self.metrics.makespan = self._time
        for shard in self.federation.shards:
            self.metrics.shards[shard.name] = shard.engine.finalize(horizon=self._time)
        return self.metrics

    # ------------------------------------------------------------------ #
    # Arrivals and routing
    # ------------------------------------------------------------------ #
    def _pull_global(self) -> None:
        """Advance the global lookahead (fleet-level duplicate detection:
        per-shard seen sets cannot catch the same id routed to two shards)."""
        self._next_global = next(self._global_arrivals, None)
        if self._next_global is None:
            return
        self._last_arrival_time = validate_arrival_order(
            self._next_global, self._seen_job_ids, self._last_arrival_time, self.config.eps
        )

    def _route_due(self, now: float) -> None:
        eps = self.config.eps
        shards = self.federation.shards
        # Routers with cached views refresh here at their own cadence; the
        # hook runs even when nothing is due, modeling a load reporter that
        # publishes on the fleet's event clock rather than on arrivals.
        self.federation.router.observe(shards, now)
        while self._next_global is not None and self._next_global.arrival_time <= now + eps:
            job = self._next_global
            self._pull_global()
            index = self.federation.router.select_shard(shards, job)
            if not 0 <= index < len(shards):
                raise ValueError(
                    f"router {self.federation.router.name!r} returned shard index "
                    f"{index} for job {job.job_id!r} (fleet has {len(shards)} shards)"
                )
            shards[index].feed.push(job)
            self._due.add(index)

    # ------------------------------------------------------------------ #
    # The shared event clock
    # ------------------------------------------------------------------ #
    def _next_fleet_event(self) -> Optional[float]:
        candidates: List[float] = [
            shard.next_event
            for shard in self.federation.shards
            if shard.next_event is not None
        ]
        if self._next_global is not None:
            candidates.append(self._next_global.arrival_time)
        # The migration check is an event source only while something else
        # can still happen, so a drained fleet terminates instead of
        # rebalancing nothing forever.
        if self._next_migration_check is not None and candidates:
            candidates.append(self._next_migration_check)
        if not candidates:
            return None
        return min(candidates)

    # ------------------------------------------------------------------ #
    # Migration
    # ------------------------------------------------------------------ #
    def _run_migration(self, now: float) -> None:
        """One rebalance check: move jobs from the hottest to the coldest shard.

        The hot/cold loads are re-evaluated after *every* moved job —
        draining ``max_migrations_per_check`` in one go from a snapshot
        taken up front can overshoot past balance, reverse the imbalance,
        and ping-pong the same jobs between shards on every check.
        """
        config = self.migration
        shards = self.federation.shards
        while self._next_migration_check <= now + self.config.eps:
            self._next_migration_check += config.interval
        if len(shards) < 2:
            return
        for _ in range(config.max_migrations_per_check):
            loads = [shard.load() for shard in shards]
            hot = max(range(len(shards)), key=lambda i: (loads[i], -i))
            cold = min(range(len(shards)), key=lambda i: (loads[i], i))
            if loads[hot] - loads[cold] <= config.imbalance_threshold:
                return
            source, target = shards[hot], shards[cold]
            # Newest jobs first: they have the least schedule locality to
            # lose, and the ordering is deterministic.
            candidates = sorted(
                source.engine.unfinished_jobs(),
                key=lambda j: (j.arrival_time, j.job_id),
                reverse=True,
            )
            moved = False
            for job in candidates:
                if self._migrate_job(job, source, target, now):
                    self._due.add(source.index)
                    self._due.add(target.index)
                    moved = True
                    break
            if not moved:
                return  # nothing movable off the hot shard; try next check

    def _migrate_job(
        self, job: Job, source: FederatedShard, target: FederatedShard, now: float
    ) -> bool:
        """Checkpoint ``job`` off ``source`` and re-admit it on ``target``.

        Every running task is checkpoint-preempted through the source
        engine (progress conserved, preemption metered per shard).  A task
        the engine's :meth:`~SimulationEngine.preemptable` guard refuses —
        completing at this very instant, or stranded on a draining
        executor — keeps the job pinned to its shard: moving it would
        orphan the running task's completion.

        The migration tick is a fleet-level event, so the source shard's
        clock may lag ``now``; it is synced (and LLM progress accrued)
        first, otherwise the checkpoint would silently roll back the work
        simulated since the shard's last own event.  Every running task
        passes the guard before any is preempted — checkpointing half a job
        and then aborting would requeue tasks behind the hot shard's backlog
        for zero rebalancing benefit.  Preempting one task of the job never
        changes whether another passes, so none is refused after the check.
        """
        if not target.can_serve(job):
            return False
        engine = source.engine
        engine.sync_clock(now)
        running = [
            task
            for stage in job.unfinished_stages()
            for task in stage.running_tasks()
        ]
        if not all(engine.preemptable(task) for task in running):
            return False
        for task in running:
            engine.preempt(task)
        # The job changes hands: any live snapshot on the *source* shard
        # must freeze its pre-migration state now, because from here on the
        # target engine mutates it and the source tracker never sees it again.
        engine._mark_job_dirty(job)
        engine._deactivate_job(job)
        engine.metrics.record_migration_out()
        target.engine._activate_job(job)
        target.engine.metrics.record_migration_in()
        target.engine.scheduler.on_job_arrival(job, now)
        self.metrics.record_migration(
            MigrationEvent(
                time=now,
                job_id=job.job_id,
                source=source.name,
                target=target.name,
                checkpointed_tasks=len(running),
                remaining_work=job.true_remaining_work(),
                cost=self.migration.cost,
            )
        )
        return True

    # ------------------------------------------------------------------ #
    def _check_for_deadlock(self) -> None:
        stuck = [job for shard in self.federation.shards for job in shard.engine.unfinished_jobs()]
        if not stuck:
            return
        pending = sum(len(j.schedulable_tasks()) for j in stuck)
        raise RuntimeError(
            f"federated simulation stalled at t={self._time:.2f}s with {len(stuck)} "
            f"unfinished jobs and {pending} schedulable tasks across "
            f"{len(self.federation.shards)} shards"
        )
