"""The cluster: a composition of named executor pools.

The cluster used to own exactly two hard-coded pools (regular containers
and batched LLM engines); it is now a thin composition layer over N
:class:`~repro.simulator.pool.ExecutorPool` instances, each with its own
executor count, batch size, latency profile and speed factor.  The legacy
:class:`ClusterConfig` still builds the default two-pool cluster — with
identical executor ids and placement order, so existing traces are
reproduced bit for bit.

Capacity accounting is incremental inside each pool (free-slot counters,
idle heaps), so the simulation engine's hot path (`free capacity?`,
`place a task`, `finish a task`) never scans executors.  The counters stay
exact as long as assignments, preemptions *and* completions go through the
cluster (``assign_*`` / ``finish_*`` / ``preempt_task``); poking executors
directly bypasses the bookkeeping.

Which pool a task lands on is decided by the placement layer
(:mod:`repro.simulator.placement`); the legacy ``assign_regular_task`` /
``assign_llm_task`` helpers implement greedy first-fit in pool declaration
order, which is exactly the pre-pool behavior for the default cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dag.task import Task, TaskType
from repro.simulator.executor import LLMExecutor, RegularExecutor
from repro.simulator.pool import AnyExecutor, ExecutorPool, PoolSpec
from repro.utils.validation import check_fields, integer, real

__all__ = ["ClusterConfig", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing of the default homogeneous two-pool serving cluster.

    The paper configures the executor counts per workload type so the cluster
    runs at a moderate (~85%) average load; :func:`repro.api.size_cluster`
    does the same for this reproduction.
    Heterogeneous clusters bypass this config and pass
    :class:`~repro.simulator.pool.PoolSpec` sequences to :class:`Cluster`
    directly.
    """

    num_regular_executors: int = field(default=8, metadata=integer(1))
    num_llm_executors: int = field(default=4, metadata=integer(1))
    max_batch_size: int = field(default=8, metadata=integer(1))
    latency_slope: float = field(default=0.06, metadata=real(0.0))

    def __post_init__(self) -> None:
        check_fields(self)

    def pool_specs(self) -> Tuple[PoolSpec, PoolSpec]:
        """The equivalent two-pool layout (ids match the pre-pool cluster)."""
        return (
            PoolSpec(
                name="regular",
                task_type=TaskType.REGULAR,
                num_executors=self.num_regular_executors,
                executor_id_prefix="reg",
            ),
            PoolSpec(
                name="llm",
                task_type=TaskType.LLM,
                num_executors=self.num_llm_executors,
                max_batch_size=self.max_batch_size,
                latency_slope=self.latency_slope,
                executor_id_prefix="llm",
            ),
        )


class Cluster:
    """Named executor pools plus the capacity surface the engine uses.

    Construct either from a legacy :class:`ClusterConfig` (default two-pool
    layout) or from an explicit sequence of pool specs::

        Cluster(ClusterConfig(num_regular_executors=8))
        Cluster(pools=[PoolSpec("cpu", TaskType.REGULAR, 8),
                       PoolSpec("a100", TaskType.LLM, 2, max_batch_size=8),
                       PoolSpec("h800", TaskType.LLM, 2, max_batch_size=16,
                                speed_factor=1.6)])

    The flat ``regular_executors`` / ``llm_executors`` views aggregate over
    pools in declaration order and only ever grow (scale-down retires
    executors in place), so flat indices held by the engine's event
    bookkeeping stay stable across autoscaling.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        pools: Optional[Sequence[PoolSpec]] = None,
    ) -> None:
        if config is not None and pools is not None:
            raise ValueError("pass either a ClusterConfig or pool specs, not both")
        if pools is None:
            config = config or ClusterConfig()
            specs: Sequence[PoolSpec] = config.pool_specs()
        else:
            specs = tuple(pools)
            if not specs:
                raise ValueError("a cluster needs at least one pool")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pool names: {names}")
        self.config = config

        self.regular_executors: List[RegularExecutor] = []
        self.llm_executors: List[LLMExecutor] = []
        self._by_id: Dict[str, AnyExecutor] = {}
        self._regular_index: Dict[str, int] = {}
        self._llm_index: Dict[str, int] = {}
        # executor_id -> pool *name* (resolved lazily: scale-up registers
        # executors while the pool object is being constructed/looked up).
        self._pool_name_of: Dict[str, str] = {}
        # executor_id -> hardware speed factor (static per executor), so
        # schedulers can translate remaining work into remaining wall time
        # without reaching into executor objects.
        self._speed_of: Dict[str, float] = {}
        # executor_id -> prefill/decode role (only executors of role-carrying
        # pools appear; empty for every non-disaggregated cluster).
        self._role_of: Dict[str, str] = {}

        self.pools: List[ExecutorPool] = []
        self._pools_by_name: Dict[str, ExecutorPool] = {}
        self._regular_pools: List[ExecutorPool] = []
        self._llm_pools: List[ExecutorPool] = []
        for spec in specs:
            pool = ExecutorPool(spec, on_new_executor=self._make_registrar(spec))
            self.pools.append(pool)
            self._pools_by_name[spec.name] = pool
            (self._regular_pools if spec.task_type is TaskType.REGULAR else self._llm_pools).append(pool)

    def _make_registrar(self, spec: PoolSpec):
        def register(executor: AnyExecutor) -> None:
            if executor.executor_id in self._by_id:  # pragma: no cover - defensive
                raise ValueError(f"duplicate executor id {executor.executor_id!r}")
            self._by_id[executor.executor_id] = executor
            self._pool_name_of[executor.executor_id] = spec.name
            self._speed_of[executor.executor_id] = spec.speed_factor
            if spec.role is not None:
                self._role_of[executor.executor_id] = spec.role
            if spec.task_type is TaskType.REGULAR:
                self._regular_index[executor.executor_id] = len(self.regular_executors)
                self.regular_executors.append(executor)
            else:
                self._llm_index[executor.executor_id] = len(self.llm_executors)
                self.llm_executors.append(executor)

        return register

    # ------------------------------------------------------------------ #
    # Pool access
    # ------------------------------------------------------------------ #
    def pool(self, name: str) -> ExecutorPool:
        return self._pools_by_name[name]

    def pools_for(self, task_type: TaskType) -> List[ExecutorPool]:
        """Pools serving ``task_type``, in declaration (placement) order."""
        return self._regular_pools if task_type is TaskType.REGULAR else self._llm_pools

    def pool_of_executor(self, executor_id: str) -> ExecutorPool:
        return self._pools_by_name[self._pool_name_of[executor_id]]

    # ------------------------------------------------------------------ #
    # Capacity
    # ------------------------------------------------------------------ #
    def idle_regular_executors(self) -> List[RegularExecutor]:
        return [e for e in self.regular_executors if e.is_idle]

    def free_llm_slots(self) -> int:
        # Plain loop, no generator allocation: this is read once per task in
        # the engine's placement loop.  Each pool's counter is incremental,
        # so the read is O(#pools) with #pools typically 1-2 per type.
        total = 0
        for pool in self._llm_pools:
            total += pool.free_slots
        return total

    def free_regular_slots(self) -> int:
        total = 0
        for pool in self._regular_pools:
            total += pool.free_slots
        return total

    def free_slots(self, task_type: TaskType) -> int:
        total = 0
        for pool in self.pools_for(task_type):
            total += pool.free_slots
        return total

    def total_capacity(self) -> int:
        """Assignable task slots across all active executors of all pools.

        The denominator of cluster-level load signals (federation routing
        and migration use jobs-per-slot); tracks autoscaling because each
        pool's capacity counts active executors only.
        """
        total = 0
        for pool in self.pools:
            total += pool.capacity
        return total

    def inactive_executor_ids(self):
        """Ids of draining/retired executors across all pools (usually empty)."""
        ids = set()
        for pool in self.pools:
            if pool.has_inactive_executors:
                ids |= pool.inactive_executor_ids()
        return ids

    def active_llm_batch_sizes(self) -> List[int]:
        """Batch sizes of LLM executors still accepting work.

        Excludes retired and draining executors so batching-aware duration
        calibration reflects where *new* tasks can land (under autoscaling
        a retired executor would otherwise report batch size 0 forever and
        drag the average down).
        """
        sizes: List[int] = []
        for pool in self._llm_pools:
            for executor in pool.executors:
                if pool.is_active(executor.executor_id):
                    sizes.append(executor.batch_size)
        return sizes

    def executor(self, executor_id: str):
        return self._by_id[executor_id]

    def executor_speeds(self) -> Dict[str, float]:
        """Live executor-id → speed-factor map (read-only by convention).

        Speeds are static per executor, so the engine can hand the same
        dict to every scheduling context without copying.
        """
        return self._speed_of

    def executor_roles(self) -> Dict[str, str]:
        """Live executor-id → prefill/decode-role map (read-only by convention).

        Like :meth:`executor_speeds`, roles are static per executor, so the
        same dict is shared with every scheduling context.  Empty unless the
        cluster declares disaggregated pools.
        """
        return self._role_of

    def regular_index(self, executor_id: str) -> int:
        """Flat pool index of a regular executor (for event bookkeeping)."""
        return self._regular_index[executor_id]

    def llm_index(self, executor_id: str) -> int:
        """Flat pool index of an LLM executor (for dirty-set bookkeeping)."""
        return self._llm_index[executor_id]

    # ------------------------------------------------------------------ #
    # Placement (greedy first-fit over pools; see repro.simulator.placement
    # for the pluggable policies the engine uses)
    # ------------------------------------------------------------------ #
    def assign_regular_task(self, task: Task, time: float) -> Optional[str]:
        """First-fit across regular pools (lowest-index idle executor within)."""
        if task.task_type is not TaskType.REGULAR:
            raise ValueError("assign_regular_task expects a regular task")
        for pool in self._regular_pools:
            placed = pool.assign(task, time)
            if placed is not None:
                return placed
        return None

    def assign_llm_task(self, task: Task, time: float) -> Optional[str]:
        """First-fit across LLM pools (least-loaded executor within a pool).

        Least-loaded placement is the simple load-balancing rule the paper
        uses for multiple LLM executors.
        """
        if task.task_type is not TaskType.LLM:
            raise ValueError("assign_llm_task expects an LLM task")
        for pool in self._llm_pools:
            placed = pool.assign(task, time)
            if placed is not None:
                return placed
        return None

    # ------------------------------------------------------------------ #
    # Completion and preemption (keep the incremental capacity state in sync)
    # ------------------------------------------------------------------ #
    def finish_regular_task(self, executor: RegularExecutor, time: float) -> Task:
        """Complete the executor's current task and return it to the idle pool."""
        return self.pool_of_executor(executor.executor_id).finish_regular_task(executor, time)

    def finish_llm_task(
        self, executor: LLMExecutor, task: Task, time: float, *, eps: float
    ) -> Task:
        """Complete ``task`` on ``executor`` and free its batch slot."""
        return self.pool_of_executor(executor.executor_id).finish_llm_task(executor, task, time, eps=eps)

    def preempt_task(self, task: Task, time: float, checkpoint: bool = True) -> float:
        """Checkpoint a running task back to PENDING; returns wasted work."""
        if task.executor_id is None:
            raise ValueError(f"task {task.key()} is not placed on any executor")
        return self.pool_of_executor(task.executor_id).preempt(task, time, checkpoint=checkpoint)

    # ------------------------------------------------------------------ #
    # Elasticity
    # ------------------------------------------------------------------ #
    def scale_pool(self, name: str, delta: int) -> int:
        """Resize a pool by ``delta`` executors; returns the applied change.

        Positive deltas add executors (new flat indices appear at the end of
        the executor views); negative deltas retire/drain executors in
        place.  Bounded by the pool spec's ``min_executors`` /
        ``max_executors``.
        """
        pool = self._pools_by_name[name]
        if delta >= 0:
            return pool.scale_up(delta)
        return -pool.scale_down(-delta)

    # ------------------------------------------------------------------ #
    # Time keeping
    # ------------------------------------------------------------------ #
    def advance_to(self, time: float) -> None:
        """Accrue progress on every LLM executor up to ``time``."""
        for executor in self.llm_executors:
            executor.advance_to(time)

    def next_completion(self) -> Optional[Tuple[float, Task, str]]:
        """Earliest upcoming task completion across all executors.

        This is the full scan; the simulation engine keeps its own indexed
        view (completion-event heap + per-LLM-executor cache) and only falls
        back to this for diagnostics and tests.
        """
        best: Optional[Tuple[float, Task, str]] = None
        for executor in self.regular_executors:
            completion = executor.completion_time()
            if completion is not None and (best is None or completion < best[0]):
                best = (completion, executor.current_task, executor.executor_id)
        for executor in self.llm_executors:
            completion = executor.next_completion()
            if completion is not None and (best is None or completion[0] < best[0]):
                best = (completion[0], completion[1], executor.executor_id)
        return best

    def utilization(self, horizon: float) -> Dict[str, float]:
        """Average busy fraction of each executor type over ``horizon`` seconds."""
        if horizon <= 0:
            return {"regular": 0.0, "llm": 0.0}
        result: Dict[str, float] = {}
        for key, executors in (("regular", self.regular_executors), ("llm", self.llm_executors)):
            if not executors:
                result[key] = 0.0
                continue
            busy = sum(e.busy_time for e in executors)
            result[key] = busy / (horizon * len(executors))
        return result

    def pool_utilization(self, horizon: float) -> Dict[str, float]:
        """Average busy fraction per named pool over ``horizon`` seconds."""
        return {p.name: p.utilization(horizon) for p in self.pools}
