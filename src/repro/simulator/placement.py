"""Pluggable placement policies: scheduler decisions → executor pools.

The scheduler layer ranks *which* tasks should run next (preference
lists); the placement layer decides *where* each task lands.  The engine
walks a decision's preference lists in order and, for every task, asks the
policy for a pool; the pool then picks the concrete executor (lowest-index
idle executor for regular pools, least-loaded for LLM pools).

:class:`GreedyFirstFitPlacement` reproduces the pre-refactor inline
placement exactly — with the default two-pool cluster there is one pool
per task type, so "first pool with a free slot" degenerates to "the" pool
and traces stay bit-identical.  The other policies only change behavior on
multi-pool (heterogeneous) clusters.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional

from repro.dag.task import Task, TaskType
from repro.simulator.cluster import Cluster
from repro.simulator.pool import ExecutorPool

__all__ = [
    "PlacementPolicy",
    "GreedyFirstFitPlacement",
    "BestFitPlacement",
    "PoolAffinityPlacement",
    "PrefillDecodePlacement",
    "available_placement_policies",
    "create_placement_policy",
]


class PlacementPolicy(abc.ABC):
    """Maps one task of a scheduling decision onto an executor pool."""

    #: Human-readable name used in experiment reports and factories.
    name: str = "base"

    @abc.abstractmethod
    def select_pool(self, cluster: Cluster, task: Task) -> Optional[ExecutorPool]:
        """The pool ``task`` should be placed on, or None if nothing fits.

        Implementations must only return pools of the task's type with at
        least one free slot; the engine places on the returned pool without
        re-checking the policy's reasoning.  They must also return a pool
        whenever any pool of the task's type has a free slot: the engine
        stops placing a decision once the free slots are used up, so
        schedulers may list only as many tasks as there are free slots,
        and a policy that declines a placeable task would leave a slot idle.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class GreedyFirstFitPlacement(PlacementPolicy):
    """First pool (in declaration order) with a free slot — the default.

    Equivalent to the pre-pool cluster's inline placement on any cluster
    with one pool per task type.
    """

    name = "greedy"

    def select_pool(self, cluster: Cluster, task: Task) -> Optional[ExecutorPool]:
        for pool in cluster.pools_for(task.task_type):
            if pool.free_slots > 0:
                return pool
        return None


class BestFitPlacement(PlacementPolicy):
    """Tightest pool that still fits (fewest free slots, ties by order).

    Packs work into already-busy pools, keeping lightly loaded pools
    drainable — the placement rule that pairs naturally with a scale-down
    autoscaler.
    """

    name = "best_fit"

    def select_pool(self, cluster: Cluster, task: Task) -> Optional[ExecutorPool]:
        best: Optional[ExecutorPool] = None
        for pool in cluster.pools_for(task.task_type):
            if pool.free_slots <= 0:
                continue
            if best is None or pool.free_slots < best.free_slots:
                best = pool
        return best


class PoolAffinityPlacement(PlacementPolicy):
    """Route tasks to a preferred pool by name, falling back when full.

    ``affinity`` maps a task to the name of its preferred pool (e.g. pin a
    tenant's jobs to a dedicated pool, or LLM tasks of long jobs to the
    high-batch pool); tasks with no preference — or whose preferred pool is
    unknown, full or serves the wrong task type — fall back to ``fallback``
    (greedy first-fit by default).
    """

    name = "affinity"

    def __init__(
        self,
        affinity: Callable[[Task], Optional[str]],
        fallback: Optional[PlacementPolicy] = None,
    ) -> None:
        self._affinity = affinity
        self._fallback = fallback or GreedyFirstFitPlacement()

    def select_pool(self, cluster: Cluster, task: Task) -> Optional[ExecutorPool]:
        preferred = self._affinity(task)
        if preferred is not None:
            try:
                pool = cluster.pool(preferred)
            except KeyError:
                pool = None  # stale pool name: degrade, don't abort the run
            if pool is not None and pool.task_type is task.task_type and pool.free_slots > 0:
                return pool
        return self._fallback.select_pool(cluster, task)


class PrefillDecodePlacement(PlacementPolicy):
    """Phase-aware routing for disaggregated prefill/decode LLM pools.

    Token-model LLM tasks land on the pool whose :attr:`~repro.simulator.
    pool.PoolSpec.role` matches their current phase: requests still in
    prefill prefer ``"prefill"`` pools, requests past their prefill
    boundary (fresh admits resuming after a handoff preemption) prefer
    ``"decode"`` pools.  Role-less pools rank second and opposite-role
    pools last — the policy stays work-conserving, trading role purity for
    an occupied slot rather than leaving the task pending.  Regular tasks
    and LLM tasks outside the token model use greedy first-fit, so on a
    cluster without role annotations this policy degenerates to the
    default exactly.
    """

    name = "prefill_decode"

    def select_pool(self, cluster: Cluster, task: Task) -> Optional[ExecutorPool]:
        if task.task_type is not TaskType.LLM or not task.has_token_model:
            for pool in cluster.pools_for(task.task_type):
                if pool.free_slots > 0:
                    return pool
            return None
        want = "decode" if task.prefill_done else "prefill"
        best: Optional[ExecutorPool] = None
        best_rank = 3
        for pool in cluster.pools_for(task.task_type):
            if pool.free_slots <= 0:
                continue
            role = pool.spec.role
            rank = 0 if role == want else (1 if role is None else 2)
            if rank < best_rank:
                best, best_rank = pool, rank
                if rank == 0:
                    break  # declaration order breaks ties within a rank
        return best


_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "greedy": GreedyFirstFitPlacement,
    "best_fit": BestFitPlacement,
    "prefill_decode": PrefillDecodePlacement,
}


def available_placement_policies() -> list:
    """Names accepted by :func:`create_placement_policy`."""
    return sorted(_POLICIES)


def create_placement_policy(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by name (affinity needs a callable,
    so it is constructed directly rather than through this factory)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; available: {available_placement_policies()}"
        ) from None
