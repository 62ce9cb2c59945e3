"""Tests for ExecutorPool: capacity accounting, heterogeneity, elasticity."""

import pytest

from repro.dag.task import Task, TaskType
from repro.simulator.pool import ExecutorPool, PoolSpec


def regular_task(work=1.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=work)


def llm_task(work=1.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=work)


def recount_free_slots(pool):
    """Ground-truth free slots: recomputed from scratch for the invariant."""
    total = 0
    for executor in pool.executors:
        if not pool.is_active(executor.executor_id):
            continue
        if pool.spec.task_type is TaskType.REGULAR:
            total += 1 if executor.is_idle else 0
        else:
            total += executor.free_slots
    return total


class TestPoolSpec:
    def test_defaults_valid(self):
        spec = PoolSpec("cpu", TaskType.REGULAR, 4)
        assert spec.slots_per_executor == 1
        assert spec.prefix == "cpu"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"num_executors": 0},
            {"max_batch_size": 0},
            {"latency_slope": -0.1},
            {"speed_factor": 0.0},
            {"min_executors": -1},
            {"min_executors": 4, "max_executors": 2},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(name="p", task_type=TaskType.LLM, num_executors=2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            PoolSpec(**base)

    def test_regular_pool_rejects_batching(self):
        with pytest.raises(ValueError):
            PoolSpec("cpu", TaskType.REGULAR, 2, max_batch_size=4)


class TestAssignFinish:
    def test_regular_lowest_index_first(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 3))
        assert pool.assign(regular_task(), 0.0) == "cpu-0"
        assert pool.assign(regular_task(), 0.0) == "cpu-1"
        assert pool.free_slots == 1

    def test_llm_least_loaded(self):
        pool = ExecutorPool(PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=2))
        first = pool.assign(llm_task(), 0.0)
        second = pool.assign(llm_task(), 0.0)
        assert {first, second} == {"gpu-0", "gpu-1"}

    def test_wrong_task_type_rejected(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 1))
        with pytest.raises(ValueError):
            pool.assign(llm_task(), 0.0)

    def test_finish_returns_capacity(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 1))
        pool.assign(regular_task(work=2.0), 0.0)
        assert pool.free_slots == 0
        executor = pool.executors[0]
        pool.finish_regular_task(executor, 2.0)
        assert pool.free_slots == 1
        assert pool.assign(regular_task(), 2.0) == "cpu-0"

    def test_free_slot_invariant_through_churn(self):
        pool = ExecutorPool(PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=3))
        placed = []
        for i in range(5):
            task = llm_task(work=1.0 + i)
            assert pool.assign(task, 0.0) is not None
            placed.append(task)
            assert pool.free_slots == recount_free_slots(pool)
        for executor in pool.executors:
            executor.advance_to(10.0)
        for task in placed:
            executor = next(e for e in pool.executors if e.executor_id == task.executor_id)
            pool.finish_llm_task(executor, task, 10.0, eps=1e-6)
            assert pool.free_slots == recount_free_slots(pool)


class TestSpeedFactor:
    def test_regular_speed_halves_duration(self):
        pool = ExecutorPool(PoolSpec("fast", TaskType.REGULAR, 1, speed_factor=2.0))
        pool.assign(regular_task(work=4.0), 0.0)
        assert pool.executors[0].completion_time() == pytest.approx(2.0)

    def test_llm_speed_scales_progress(self):
        slow = ExecutorPool(PoolSpec("a", TaskType.LLM, 1, max_batch_size=1, latency_slope=0.0))
        fast = ExecutorPool(
            PoolSpec("b", TaskType.LLM, 1, max_batch_size=1, latency_slope=0.0, speed_factor=2.0)
        )
        t1, t2 = llm_task(work=4.0), llm_task(work=4.0)
        slow.assign(t1, 0.0)
        fast.assign(t2, 0.0)
        slow.executors[0].advance_to(1.0)
        fast.executors[0].advance_to(1.0)
        assert t1.progress == pytest.approx(1.0)
        assert t2.progress == pytest.approx(2.0)


class TestElasticity:
    def test_scale_up_appends_fresh_ids(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 2, max_executors=4))
        assert pool.scale_up(3) == 2  # capped by max_executors
        assert [e.executor_id for e in pool.executors] == [
            "cpu-0",
            "cpu-1",
            "cpu-2",
            "cpu-3",
        ]
        assert pool.free_slots == 4

    def test_scale_down_idle_immediate(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 3, min_executors=1))
        assert pool.scale_down(5) == 2  # floor at min_executors
        assert pool.num_active_executors == 1
        assert pool.free_slots == 1
        # Retired executors are never assigned.
        assert pool.assign(regular_task(), 0.0) == "cpu-0"
        assert pool.assign(regular_task(), 0.0) is None

    def test_scale_down_busy_drains(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 2, min_executors=0))
        t0, t1 = regular_task(work=1.0), regular_task(work=5.0)
        pool.assign(t0, 0.0)
        pool.assign(t1, 0.0)
        assert pool.scale_down(1) == 1  # both busy: one drains
        assert pool.free_slots == 0
        drained = pool.executors[1]  # high-index victim
        assert not pool.is_active(drained.executor_id)
        pool.finish_regular_task(drained, 5.0)
        # Finishing on a draining executor retires it, capacity not returned.
        assert pool.free_slots == 0
        assert pool.num_active_executors == 1

    def test_scale_up_unretires_before_creating(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 4, min_executors=1))
        pool.scale_down(3)  # retires 3 idle executors
        assert pool.num_active_executors == 1
        assert pool.scale_up(2) == 2
        # Recycled, not created: the executor list is bounded by the peak.
        assert len(pool.executors) == 4
        assert pool.num_active_executors == 3
        assert pool.free_slots == 3
        # Reactivated executors are assignable again.
        assert pool.assign(regular_task(), 0.0) is not None
        assert pool.assign(regular_task(), 0.0) is not None
        assert pool.assign(regular_task(), 0.0) is not None
        assert pool.assign(regular_task(), 0.0) is None

    def test_cyclic_scaling_does_not_grow_executor_list(self):
        pool = ExecutorPool(PoolSpec("gpu", TaskType.LLM, 1, max_batch_size=2, min_executors=1, max_executors=6))
        for _ in range(10):  # ten "days" of diurnal up/down
            pool.scale_up(5)
            pool.scale_down(5)
        assert len(pool.executors) == 6  # bounded by the historical peak
        assert pool.num_active_executors == 1
        assert pool.free_slots == 2

    def test_scale_up_undrains_before_creating(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 2, min_executors=0))
        pool.assign(regular_task(work=5.0), 0.0)
        pool.assign(regular_task(work=5.0), 0.0)
        pool.scale_down(1)
        assert pool.scale_up(1) == 1
        assert len(pool.executors) == 2  # un-drained, nothing new created
        assert pool.num_active_executors == 2

    def test_llm_scale_down_removes_open_slots(self):
        pool = ExecutorPool(PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=4, min_executors=0))
        task = llm_task(work=10.0)
        pool.assign(task, 0.0)
        assert pool.free_slots == 7
        pool.scale_down(1)  # retires the idle executor outright
        assert pool.free_slots == 3
        pool.scale_down(1)  # drains the busy one: its 3 open slots vanish
        assert pool.free_slots == 0
        executor = pool.executors[pool._local_index[task.executor_id]]
        executor.advance_to(20.0)
        pool.finish_llm_task(executor, task, 20.0, eps=1e-9)
        assert pool.num_active_executors == 0
        assert pool.free_slots == 0

    def test_occupancy(self):
        pool = ExecutorPool(PoolSpec("cpu", TaskType.REGULAR, 4))
        assert pool.occupancy == 0.0
        pool.assign(regular_task(), 0.0)
        assert pool.occupancy == pytest.approx(0.25)
