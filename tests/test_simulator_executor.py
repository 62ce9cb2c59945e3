"""Tests for regular and batched LLM executors."""

import pytest

from repro.dag.task import Task, TaskType
from repro.simulator.executor import LLMExecutor, RegularExecutor
from repro.simulator.latency import DecodingLatencyProfile


def regular_task(work=2.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.REGULAR, work=work)


def llm_task(work=4.0):
    return Task(job_id="j", stage_id="s", task_type=TaskType.LLM, work=work)


class TestRegularExecutor:
    def test_assign_and_finish(self):
        executor = RegularExecutor("r0")
        task = regular_task(3.0)
        executor.assign(task, 1.0)
        assert not executor.is_idle
        assert executor.completion_time() == pytest.approx(4.0)
        finished = executor.finish_current(4.0)
        assert finished is task
        assert executor.is_idle
        assert executor.busy_time == pytest.approx(3.0)

    def test_cannot_double_assign(self):
        executor = RegularExecutor("r0")
        executor.assign(regular_task(), 0.0)
        with pytest.raises(RuntimeError):
            executor.assign(regular_task(), 0.0)

    def test_rejects_llm_task(self):
        with pytest.raises(ValueError):
            RegularExecutor("r0").assign(llm_task(), 0.0)

    def test_finish_when_idle_raises(self):
        with pytest.raises(RuntimeError):
            RegularExecutor("r0").finish_current(1.0)

    def test_completion_time_none_when_idle(self):
        assert RegularExecutor("r0").completion_time() is None


class TestLLMExecutorSingleTask:
    def test_single_task_runs_at_full_speed(self):
        executor = LLMExecutor("l0", max_batch_size=4, latency_profile=DecodingLatencyProfile(0.1))
        task = llm_task(5.0)
        executor.add_task(task, 0.0)
        finish_time, finishing_task = executor.next_completion()
        assert finishing_task is task
        assert finish_time == pytest.approx(5.0)
        executor.advance_to(5.0)
        executor.finish_task(task, 5.0, eps=1e-9)
        assert executor.is_idle
        assert task.is_finished

    def test_rejects_regular_task(self):
        with pytest.raises(ValueError):
            LLMExecutor("l0", 4).add_task(regular_task(), 0.0)

    def test_batch_capacity_enforced(self):
        executor = LLMExecutor("l0", max_batch_size=1)
        executor.add_task(llm_task(), 0.0)
        with pytest.raises(RuntimeError):
            executor.add_task(llm_task(), 0.0)

    def test_finish_with_remaining_work_raises(self):
        executor = LLMExecutor("l0", 4)
        task = llm_task(10.0)
        executor.add_task(task, 0.0)
        executor.advance_to(1.0)
        with pytest.raises(RuntimeError):
            executor.finish_task(task, 1.0, eps=1e-9)

    def test_time_cannot_move_backwards(self):
        executor = LLMExecutor("l0", 4)
        executor.add_task(llm_task(), 0.0)
        executor.advance_to(2.0)
        with pytest.raises(ValueError):
            executor.advance_to(1.0)


class TestLLMExecutorBatching:
    def test_batched_tasks_slow_down(self):
        """Two tasks sharing the batch progress at latency-scaled speed."""
        profile = DecodingLatencyProfile(slope=0.5)  # batch of 2 -> 1.5x latency
        executor = LLMExecutor("l0", max_batch_size=4, latency_profile=profile)
        a, b = llm_task(3.0), llm_task(6.0)
        executor.add_task(a, 0.0)
        executor.add_task(b, 0.0)
        finish_time, first = executor.next_completion()
        assert first is a
        # 3.0 units of work at speed 1/1.5 takes 4.5 seconds.
        assert finish_time == pytest.approx(4.5)

    def test_batch_change_rescales_remaining_duration(self):
        """Adding a request mid-flight stretches the remaining duration."""
        profile = DecodingLatencyProfile(slope=0.5)
        executor = LLMExecutor("l0", max_batch_size=4, latency_profile=profile)
        a = llm_task(4.0)
        executor.add_task(a, 0.0)
        # Run alone for 2 seconds -> 2.0 work left.
        executor.advance_to(2.0)
        assert a.remaining_work == pytest.approx(2.0)
        b = llm_task(10.0)
        executor.add_task(b, 2.0)
        finish_time, first = executor.next_completion()
        assert first is a
        # 2.0 remaining at speed 1/1.5 -> finishes 3 seconds later.
        assert finish_time == pytest.approx(5.0)

    def test_departure_speeds_up_remaining_tasks(self):
        profile = DecodingLatencyProfile(slope=1.0)  # batch 2 -> half speed
        executor = LLMExecutor("l0", max_batch_size=2, latency_profile=profile)
        a, b = llm_task(2.0), llm_task(4.0)
        executor.add_task(a, 0.0)
        executor.add_task(b, 0.0)
        # a finishes after 4 seconds of wall clock (2 work at half speed).
        executor.advance_to(4.0)
        executor.finish_task(a, 4.0, eps=1e-9)
        # b has 2 work left and now runs at full speed.
        finish_time, task = executor.next_completion()
        assert task is b
        assert finish_time == pytest.approx(6.0)

    def test_busy_time_accrues_only_when_running(self):
        executor = LLMExecutor("l0", 4)
        executor.advance_to(5.0)
        assert executor.busy_time == 0.0
        executor.add_task(llm_task(1.0), 5.0)
        executor.advance_to(6.0)
        assert executor.busy_time == pytest.approx(1.0)

