"""Threshold / target-load autoscaling of executor pools.

The paper sizes the cluster offline for one fixed arrival rate; under the
open-loop diurnal arrival process (:mod:`repro.workloads.arrivals`) any
static size is wrong half the day.  This module adds the missing control
loop: at a fixed check interval (a *scale event*), the autoscaler compares
each pool's instantaneous occupancy against a target band and resizes the
pool through the cluster's elasticity API — scale-up adds executors,
scale-down drains them (busy executors retire when their work finishes, so
no running task is killed by the autoscaler).

The engine only consults the autoscaler when one is configured, so default
runs remain bit-identical to the pre-autoscaler engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dag.task import TaskType
from repro.simulator.cluster import Cluster
from repro.utils.validation import require_int

__all__ = ["AutoscalerConfig", "ScaleEvent", "ThresholdAutoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Target-load band and step sizing for :class:`ThresholdAutoscaler`.

    A pool scales up when its occupancy is at or above
    ``scale_up_occupancy`` *and* there is unplaced demand of its task type
    (backlog), and scales down when occupancy falls to or below
    ``scale_down_occupancy`` with no backlog.  ``step`` executors are added
    or drained per event, bounded by each pool spec's ``min_executors`` /
    ``max_executors``.  Both directions are capped *per task type*: one
    check event changes a type's capacity by at most ``step`` executors,
    however many sibling pools serve that type.
    """

    interval: float = 30.0
    scale_up_occupancy: float = 0.9
    scale_down_occupancy: float = 0.3
    step: int = 1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if not 0.0 < self.scale_up_occupancy <= 1.0:
            raise ValueError("scale_up_occupancy must be within (0, 1]")
        if not 0.0 <= self.scale_down_occupancy < self.scale_up_occupancy:
            raise ValueError("scale_down_occupancy must be in [0, scale_up_occupancy)")
        require_int(self.step, "step", 1)


@dataclass(frozen=True)
class ScaleEvent:
    """One applied pool resize (recorded in the run metrics)."""

    time: float
    pool: str
    delta: int
    occupancy: float
    backlog: int
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "pool": self.pool,
            "delta": self.delta,
            "occupancy": self.occupancy,
            "backlog": self.backlog,
            "reason": self.reason,
        }


class ThresholdAutoscaler:
    """Per-pool occupancy-band autoscaler driven by the engine's clock.

    The engine treats ``next_check_time`` as an event source (like arrivals
    and completions) and calls :meth:`check` whenever the clock reaches it;
    ``check`` evaluates every pool once and advances the next check time by
    ``interval``.
    """

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config or AutoscalerConfig()
        self.next_check_time: float = self.config.interval
        self.events: List[ScaleEvent] = []

    def reset(self) -> None:
        """Re-arm for a fresh run (clock restarts at 0).

        The engine calls this at construction so an autoscaler instance
        reused across runs does not carry the previous run's check
        schedule (which would silently skip every check before the old
        run's final clock).
        """
        self.next_check_time = self.config.interval
        self.events = []

    def check(
        self,
        cluster: Cluster,
        backlog: Dict[TaskType, int],
        now: float,
        eps: float = 0.0,
    ) -> List[ScaleEvent]:
        """Evaluate all pools at ``now``; returns the scale events applied.

        ``backlog`` is the number of schedulable-but-unplaced tasks per
        task type (the demand signal: occupancy alone cannot distinguish a
        full pool with a deep queue from a full pool with none).  ``eps``
        must match the caller's trigger tolerance: a check fired at
        ``next_check_time - eps/2`` still advances the schedule, so one
        scheduled interval never runs twice.
        """
        config = self.config
        applied: List[ScaleEvent] = []
        # Demand is absorbed type-wide: a full pool must not scale up while
        # a sibling pool of the same task type can take the whole backlog.
        free_by_type = {
            task_type: cluster.free_slots(task_type)
            for task_type in (TaskType.REGULAR, TaskType.LLM)
        }
        # Scale-down needs the mirror-image guard: each eligible pool is
        # individually below the band, but draining ``step`` from every
        # sibling would shrink the type's capacity by pools × step in one
        # event — far below the band's intent.  Budget the drain per type.
        down_budget = {TaskType.REGULAR: config.step, TaskType.LLM: config.step}
        for pool in cluster.pools:
            occupancy = pool.occupancy
            pending = backlog.get(pool.task_type, 0)
            # Scale up only for demand the cluster cannot already absorb:
            # at a band-edge occupancy a small backlog may fit into free
            # slots at the very next dispatch.  A pool drained to zero
            # capacity reports occupancy 0; backlog alone must be able to
            # scale it back up.
            if pending > free_by_type[pool.task_type] and (
                pool.capacity == 0 or occupancy >= config.scale_up_occupancy
            ):
                delta = cluster.scale_pool(pool.name, config.step)
                # Re-read the type-wide free capacity so a sibling pool does
                # not also scale up for the same backlog.  (Recomputing is
                # exact: scale-up may recycle busy draining executors that
                # free no slots right now, so crediting delta*slots would
                # overstate the absorbed demand.)
                free_by_type[pool.task_type] = cluster.free_slots(pool.task_type)
                reason = "occupancy above target band with backlog"
            elif (
                occupancy <= config.scale_down_occupancy
                and pending == 0
                and down_budget[pool.task_type] > 0
            ):
                delta = cluster.scale_pool(pool.name, -down_budget[pool.task_type])
                down_budget[pool.task_type] += delta  # delta <= 0
                reason = "occupancy below target band"
            else:
                continue
            if delta != 0:
                applied.append(
                    ScaleEvent(
                        time=now,
                        pool=pool.name,
                        delta=delta,
                        occupancy=occupancy,
                        backlog=pending,
                        reason=reason,
                    )
                )
        while self.next_check_time <= now + eps:
            self.next_check_time += config.interval
        self.events.extend(applied)
        return applied
