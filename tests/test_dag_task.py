"""Tests for runtime tasks."""

import pytest

from repro.dag.task import Task, TaskState, TaskType


def make_task(work=10.0, task_type=TaskType.LLM):
    return Task(job_id="j0", stage_id="s0", task_type=task_type, work=work)


class TestConstruction:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            make_task(work=-1.0)

    def test_nan_work_rejected(self):
        with pytest.raises(ValueError, match="work must be >= 0"):
            make_task(work=float("nan"))

    def test_unique_uids(self):
        assert make_task().uid != make_task().uid

    def test_key_format(self):
        task = Task(job_id="jobA", stage_id="stage3", task_type=TaskType.REGULAR, work=1.0, index=2)
        assert task.key() == "jobA/stage3/2"


class TestLifecycle:
    def test_normal_lifecycle(self):
        task = make_task(work=5.0)
        assert task.state is TaskState.PENDING
        task.mark_running(1.0, "exec-0")
        assert task.state is TaskState.RUNNING
        assert task.start_time == 1.0
        assert task.executor_id == "exec-0"
        task.advance(2.0)
        assert task.remaining_work == pytest.approx(3.0)
        task.advance(3.0)
        assert task.remaining_work == 0.0
        task.mark_finished(6.0)
        assert task.is_finished
        assert task.finish_time == 6.0

    def test_cannot_start_twice(self):
        task = make_task()
        task.mark_running(0.0, "e")
        with pytest.raises(RuntimeError):
            task.mark_running(1.0, "e")

    def test_cannot_finish_pending(self):
        with pytest.raises(RuntimeError):
            make_task().mark_finished(1.0)

    def test_cannot_advance_pending(self):
        with pytest.raises(RuntimeError):
            make_task().advance(1.0)

    def test_advance_negative_rejected(self):
        task = make_task()
        task.mark_running(0.0, "e")
        with pytest.raises(ValueError):
            task.advance(-1.0)

    def test_progress_capped_at_work(self):
        task = make_task(work=2.0)
        task.mark_running(0.0, "e")
        task.advance(100.0)
        assert task.progress == pytest.approx(2.0)
        assert task.remaining_work == 0.0

    def test_finish_sets_full_progress(self):
        task = make_task(work=4.0)
        task.mark_running(0.0, "e")
        task.advance(1.0)
        task.mark_finished(9.0)
        assert task.progress == pytest.approx(4.0)
