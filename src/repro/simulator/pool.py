"""Named, heterogeneous executor pools.

A :class:`Cluster` used to own exactly two hard-coded pools (regular
containers and batched LLM engines).  This module extracts the pool into
its own abstraction so a cluster can be composed of N named pools with
per-pool executor count, batch size, latency profile and speed factor —
the substrate for pool-aware placement policies and autoscaling.

Capacity bookkeeping is incremental, exactly like the pre-refactor
cluster: each pool maintains a free-slot counter and (for regular pools) a
min-heap of idle executor indices, so the simulation engine's hot path
never scans executors.  The counters stay exact as long as assignments,
preemptions and completions go through the pool.

Elasticity
----------
``scale_up`` appends fresh executors (ids carry a monotonically increasing
suffix and are never reused).  ``scale_down`` *retires* executors instead
of deleting them: an idle executor retires immediately, a busy one drains —
it stops accepting work and retires when its current work finishes.
Retired executors stay in the executor list so indices held by the
engine's event bookkeeping remain stable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Union

from repro.dag.task import Task, TaskType
from repro.simulator.executor import LLMExecutor, RegularExecutor
from repro.simulator.latency import DecodingLatencyProfile
from repro.utils.validation import check_fields, integer, member, one_of, positive, real, text

__all__ = ["PoolSpec", "ExecutorPool"]

AnyExecutor = Union[RegularExecutor, LLMExecutor]


@dataclass(frozen=True)
class PoolSpec:
    """Static description of one executor pool.

    Attributes
    ----------
    name:
        Unique pool name (used by placement policies and scale events).
    task_type:
        Which task type the pool serves (regular or LLM).
    num_executors:
        Initial executor count.
    max_batch_size:
        Batch capacity per executor (only meaningful for LLM pools; must
        be 1 for regular pools).
    latency_slope:
        Slope of the batch-size → decoding-latency profile (LLM pools).
    speed_factor:
        Relative hardware speed: 2.0 completes work twice as fast as the
        baseline.  The default of 1.0 keeps the arithmetic bit-identical
        to the pre-pool cluster.
    min_executors / max_executors:
        Autoscaler bounds (``max_executors=None`` means unbounded).
    executor_id_prefix:
        Prefix of generated executor ids; defaults to the pool name.  The
        default two-pool cluster passes ``reg`` / ``llm`` so ids match the
        pre-pool cluster exactly.
    role:
        Serving role for prefill/decode disaggregation (LLM pools only):
        ``"prefill"`` pools prefer requests still in their prefill phase,
        ``"decode"`` pools prefer requests past it (routed by the
        ``prefill_decode`` placement policy).  ``None`` (the default) keeps
        the pool role-agnostic and all placement behavior unchanged.
    """

    name: str = field(metadata=text())
    task_type: TaskType = field(metadata=member(TaskType))
    num_executors: int = field(metadata=integer(1))
    max_batch_size: int = field(default=1, metadata=integer(1))
    latency_slope: float = field(default=0.06, metadata=real(0.0))
    speed_factor: float = field(default=1.0, metadata=positive())
    min_executors: int = field(default=1, metadata=integer(0))
    max_executors: Optional[int] = field(default=None, metadata=integer(0, optional=True))
    executor_id_prefix: Optional[str] = field(default=None, metadata=text(optional=True))
    role: Optional[str] = field(
        default=None, metadata=one_of("pool role", ("prefill", "decode"), optional=True)
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.role is not None and self.task_type is not TaskType.LLM:
            raise ValueError("only LLM pools can carry a prefill/decode role")
        if self.task_type is TaskType.REGULAR and self.max_batch_size != 1:
            raise ValueError("regular pools run one task per executor (max_batch_size=1)")
        if self.max_executors is not None and self.max_executors < self.min_executors:
            raise ValueError(f"max_executors must be >= min_executors, got {self.max_executors}")

    @property
    def prefix(self) -> str:
        return self.executor_id_prefix or self.name

    def latency_profile(self) -> DecodingLatencyProfile:
        return DecodingLatencyProfile(slope=self.latency_slope)

    @property
    def slots_per_executor(self) -> int:
        return self.max_batch_size if self.task_type is TaskType.LLM else 1


class ExecutorPool:
    """One named pool of homogeneous executors with incremental accounting.

    ``on_new_executor`` is invoked for every executor the pool creates
    (at construction and on scale-up); the owning cluster uses it to keep
    its flat executor lists and id → index maps in sync.

    Lifecycle of an executor: *active* (assignable) → *draining* (busy,
    accepts no new work) → *retired* (idle, out of capacity).  Idle active
    executors retire directly.  ``free_slots`` always counts assignable
    slots on active executors only.
    """

    def __init__(
        self,
        spec: PoolSpec,
        on_new_executor: Optional[Callable[[AnyExecutor], None]] = None,
    ) -> None:
        self.spec = spec
        self.executors: List[AnyExecutor] = []
        self._on_new_executor = on_new_executor
        self._id_counter = 0
        self._local_index = {}  # executor_id -> index into self.executors
        self._draining: Set[str] = set()
        self._retired: Set[str] = set()
        # Incremental capacity state.
        self._idle_heap: List[int] = []  # regular pools only
        self._free_slots = 0
        for _ in range(spec.num_executors):
            self._create_executor()

    # ------------------------------------------------------------------ #
    # Identity and capacity
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def task_type(self) -> TaskType:
        return self.spec.task_type

    @property
    def free_slots(self) -> int:
        return self._free_slots

    @property
    def num_active_executors(self) -> int:
        """Executors accepting new work (excludes draining and retired)."""
        return len(self.executors) - len(self._draining) - len(self._retired)

    @property
    def capacity(self) -> int:
        """Total task slots across active executors."""
        return self.num_active_executors * self.spec.slots_per_executor

    @property
    def occupancy(self) -> float:
        """Busy fraction of the pool's active slot capacity (0 when empty)."""
        capacity = self.capacity
        if capacity <= 0:
            return 0.0
        return 1.0 - self._free_slots / capacity

    def is_active(self, executor_id: str) -> bool:
        return executor_id not in self._draining and executor_id not in self._retired

    @property
    def has_inactive_executors(self) -> bool:
        return bool(self._draining or self._retired)

    def inactive_executor_ids(self) -> Set[str]:
        """Ids of draining + retired executors (not accepting work)."""
        return set(self._draining) | self._retired

    # ------------------------------------------------------------------ #
    # Executor creation
    # ------------------------------------------------------------------ #
    def _create_executor(self) -> AnyExecutor:
        executor_id = f"{self.spec.prefix}-{self._id_counter}"
        self._id_counter += 1
        executor: AnyExecutor
        if self.spec.task_type is TaskType.REGULAR:
            executor = RegularExecutor(executor_id, speed=self.spec.speed_factor)
        else:
            executor = LLMExecutor(
                executor_id,
                self.spec.max_batch_size,
                self.spec.latency_profile(),
                speed_factor=self.spec.speed_factor,
            )
        index = len(self.executors)
        self.executors.append(executor)
        self._local_index[executor_id] = index
        if self.spec.task_type is TaskType.REGULAR:
            heapq.heappush(self._idle_heap, index)
        self._free_slots += self.spec.slots_per_executor
        if self._on_new_executor is not None:
            self._on_new_executor(executor)
        return executor

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def assign(self, task: Task, time: float) -> Optional[str]:
        """Place ``task`` on this pool's executor of choice (None if full).

        Regular pools pick the lowest-index idle executor; LLM pools pick
        the least-loaded executor (ties broken by executor id) — the same
        rules the pre-pool cluster applied, so the default configuration
        reproduces its traces bit for bit.
        """
        if task.task_type is not self.spec.task_type:
            raise ValueError(
                f"pool {self.name!r} serves {self.spec.task_type.value} tasks, "
                f"got {task.task_type.value}"
            )
        if self.spec.task_type is TaskType.REGULAR:
            while self._idle_heap:
                index = heapq.heappop(self._idle_heap)
                executor = self.executors[index]
                if not executor.is_idle or not self.is_active(executor.executor_id):
                    continue  # stale entry (mutated directly, or no longer active)
                executor.assign(task, time)
                self._free_slots -= 1
                return executor.executor_id
            return None
        candidates = [
            e
            for e in self.executors
            if e.free_slots > 0 and self.is_active(e.executor_id)
        ]
        if not candidates:
            return None
        executor = min(candidates, key=lambda e: (e.batch_size, e.executor_id))
        executor.add_task(task, time)
        self._free_slots -= 1
        return executor.executor_id

    # ------------------------------------------------------------------ #
    # Completion and preemption
    # ------------------------------------------------------------------ #
    def finish_regular_task(self, executor: RegularExecutor, time: float) -> Task:
        task = executor.finish_current(time)
        self._release(executor)
        return task

    def finish_llm_task(
        self, executor: LLMExecutor, task: Task, time: float, *, eps: float
    ) -> Task:
        executor.finish_task(task, time, eps=eps)
        self._release(executor)
        return task

    def preempt(self, task: Task, time: float, checkpoint: bool = True) -> float:
        """Checkpoint a running task back to PENDING; returns wasted work.

        With ``checkpoint=True`` (the default) progress is conserved and
        the wasted work is 0; without it the task restarts from scratch
        and the discarded progress is returned.
        """
        executor = self.executors[self._local_index[task.executor_id]]
        if self.spec.task_type is TaskType.REGULAR:
            wasted = executor.preempt_current(time, checkpoint=checkpoint)
        else:
            wasted = executor.preempt_task(task, time, checkpoint=checkpoint)
        self._release(executor)
        return wasted

    def _release(self, executor: AnyExecutor) -> None:
        """Return one freed slot to the pool (or complete a drain)."""
        executor_id = executor.executor_id
        if executor_id in self._retired:
            return  # already out of capacity
        if executor_id in self._draining:
            if executor.is_idle:
                self._draining.discard(executor_id)
                self._retired.add(executor_id)
            return  # draining capacity is never returned
        if self.spec.task_type is TaskType.REGULAR:
            heapq.heappush(self._idle_heap, self._local_index[executor_id])
        self._free_slots += 1

    # ------------------------------------------------------------------ #
    # Elasticity
    # ------------------------------------------------------------------ #
    def scale_up(self, count: int) -> int:
        """Add up to ``count`` executors (bounded by ``max_executors``).

        Existing capacity is recycled before any new executor is created:
        draining executors are un-drained first (cancelling the pending
        shrink), then retired executors are reactivated — so a cyclic
        scale-down/scale-up pattern (diurnal autoscaling) reuses the same
        executors instead of growing the executor list without bound.
        Returns the number of executors actually added (recycled ones
        included).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        added = 0
        for _ in range(count):
            if (
                self.spec.max_executors is not None
                and self.num_active_executors >= self.spec.max_executors
            ):
                break
            if self._undrain_one() is None and self._unretire_one() is None:
                self._create_executor()
            added += 1
        return added

    def _undrain_one(self) -> Optional[AnyExecutor]:
        if not self._draining:
            return None
        executor_id = min(self._draining, key=lambda eid: self._local_index[eid])
        self._draining.discard(executor_id)
        executor = self.executors[self._local_index[executor_id]]
        # Draining executors are always busy (idle ones retire immediately),
        # so a regular executor contributes no free slot yet; an LLM
        # executor re-contributes its open batch slots.
        if self.spec.task_type is TaskType.LLM:
            self._free_slots += executor.free_slots
        return executor

    def _unretire_one(self) -> Optional[AnyExecutor]:
        if not self._retired:
            return None
        executor_id = min(self._retired, key=lambda eid: self._local_index[eid])
        self._retired.discard(executor_id)
        index = self._local_index[executor_id]
        executor = self.executors[index]
        # Retired executors are always idle: restore their full capacity
        # (their stale idle-heap entries were dropped at assign time, so
        # regular pools need the index pushed back).
        if self.spec.task_type is TaskType.REGULAR:
            heapq.heappush(self._idle_heap, index)
        self._free_slots += self.spec.slots_per_executor
        return executor

    def scale_down(self, count: int) -> int:
        """Retire up to ``count`` executors (bounded by ``min_executors``).

        Idle executors retire immediately; busy ones drain and retire when
        their current work completes.  Returns how many retirements were
        initiated.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        initiated = 0
        for _ in range(count):
            if self.num_active_executors <= self.spec.min_executors:
                break
            victim = self._pick_scale_down_victim()
            if victim is None:  # pragma: no cover - defensive
                break
            if victim.is_idle:
                self._retired.add(victim.executor_id)
                self._free_slots -= self.spec.slots_per_executor
            else:
                self._draining.add(victim.executor_id)
                self._free_slots -= victim.free_slots if self.spec.task_type is TaskType.LLM else 0
            initiated += 1
        return initiated

    def _pick_scale_down_victim(self) -> Optional[AnyExecutor]:
        # Prefer idle executors, then the least-loaded busy one; scan from
        # the high-index end so low-index executors (the ones first-fit
        # placement prefers) stay hot.
        fallback: Optional[AnyExecutor] = None
        for executor in reversed(self.executors):
            if not self.is_active(executor.executor_id):
                continue
            if executor.is_idle:
                return executor
            if fallback is None or self._load_of(executor) < self._load_of(fallback):
                fallback = executor
        return fallback

    @staticmethod
    def _load_of(executor: AnyExecutor) -> int:
        return executor.batch_size if isinstance(executor, LLMExecutor) else 1

    # ------------------------------------------------------------------ #
    # Time keeping and accounting
    # ------------------------------------------------------------------ #
    def busy_time(self) -> float:
        return sum(e.busy_time for e in self.executors)

    def utilization(self, horizon: float) -> float:
        """Average busy fraction over ``horizon`` (relative to all executors ever)."""
        if horizon <= 0 or not self.executors:
            return 0.0
        return self.busy_time() / (horizon * len(self.executors))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutorPool({self.name!r}, {self.spec.task_type.value}, "
            f"{self.num_active_executors} active, free={self._free_slots})"
        )
