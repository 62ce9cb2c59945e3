"""Executors: regular containers and batched LLM engines."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.dag.task import Task, TaskType
from repro.simulator.latency import DecodingLatencyProfile

__all__ = ["RegularExecutor", "LLMExecutor"]

_EPS = 1e-9


class RegularExecutor:
    """An executor (e.g. a container) running one regular task at a time.

    ``speed`` is the pool's relative hardware speed: a task with ``w``
    seconds of remaining work occupies the executor for ``w / speed``
    wall-clock seconds.  The default of 1.0 keeps the completion-time
    arithmetic bit-identical to the homogeneous cluster.
    """

    def __init__(self, executor_id: str, speed: float = 1.0) -> None:
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.executor_id = executor_id
        self.speed = float(speed)
        self.current_task: Optional[Task] = None
        self._task_started_at: float = 0.0
        self.busy_time: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def is_idle(self) -> bool:
        return self.current_task is None

    def assign(self, task: Task, time: float) -> None:
        if not self.is_idle:
            raise RuntimeError(f"executor {self.executor_id} is busy")
        if task.task_type is not TaskType.REGULAR:
            raise ValueError(f"executor {self.executor_id} only runs regular tasks")
        task.mark_running(time, self.executor_id)
        self.current_task = task
        self._task_started_at = float(time)

    def completion_time(self) -> Optional[float]:
        """Absolute time at which the current task will finish (None if idle).

        Uses the task's *remaining* work (a checkpointed task resumes where
        it left off) scaled by the executor speed; at progress 0 and speed 1
        this reduces exactly to ``start + work``.
        """
        if self.current_task is None:
            return None
        return self._task_started_at + self.current_task.remaining_work / self.speed

    def preempt_current(self, time: float, checkpoint: bool = True) -> float:
        """Checkpoint the running task back to PENDING at ``time``.

        Progress accrued so far is banked on the task (work conservation)
        unless ``checkpoint=False``, in which case it is discarded.  Returns
        the amount of work wasted (0 for a checkpointed preemption).
        """
        if self.current_task is None:
            raise RuntimeError(f"executor {self.executor_id} has no task to preempt")
        task = self.current_task
        elapsed = max(0.0, time - self._task_started_at)
        task.advance(elapsed * self.speed)
        wasted = task.mark_preempted(checkpoint=checkpoint)
        self.busy_time += elapsed
        self.current_task = None
        return wasted

    def finish_current(self, time: float) -> Task:
        """Complete the current task at ``time`` and free the executor."""
        if self.current_task is None:
            raise RuntimeError(f"executor {self.executor_id} has no running task")
        task = self.current_task
        task.mark_finished(time)
        self.busy_time += time - self._task_started_at
        self.current_task = None
        return task

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self.is_idle else f"running {self.current_task.key()}"
        return f"RegularExecutor({self.executor_id}, {state})"


class LLMExecutor:
    """A serving-engine instance executing LLM tasks with continuous batching.

    Every running request progresses concurrently; the per-request progress
    rate depends on the current batch size through the decoding-latency
    profile.  Whenever the batch composition changes, callers must first
    bring the executor up to date with :meth:`advance_to` so that progress
    is accounted at the correct rates (this is exactly how the paper's
    simulator "dynamically adjusts the remaining duration of each running
    LLM task whenever the number of concurrent running requests changes").
    """

    def __init__(
        self,
        executor_id: str,
        max_batch_size: int,
        latency_profile: Optional[DecodingLatencyProfile] = None,
        speed_factor: float = 1.0,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if speed_factor <= 0:
            raise ValueError("speed_factor must be > 0")
        self.executor_id = executor_id
        self.max_batch_size = int(max_batch_size)
        self.latency_profile = latency_profile or DecodingLatencyProfile()
        self.speed_factor = float(speed_factor)
        self.running: List[Task] = []
        self.busy_time: float = 0.0
        self._last_update: float = 0.0
        #: Inter-token latency samples (seconds/token), one per task per
        #: constant-batch segment in which it emitted at least one decode
        #: token.  Drained by the engine at finalize; bounded by the number
        #: of batch-composition changes, not by token counts.
        self.itl_samples: List[float] = []

    def _rate(self) -> float:
        """Per-request progress rate at the current batch size.

        ``speed_factor`` scales the whole profile (heterogeneous pools);
        multiplying by the default 1.0 is exact, so homogeneous clusters
        keep bit-identical progress arithmetic.
        """
        return self.latency_profile.speed(self.batch_size) * self.speed_factor

    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return len(self.running)

    @property
    def free_slots(self) -> int:
        return self.max_batch_size - self.batch_size

    @property
    def is_idle(self) -> bool:
        return not self.running

    # ------------------------------------------------------------------ #
    def advance_to(self, time: float) -> None:
        """Accrue progress for all running tasks up to ``time``."""
        if time < self._last_update - _EPS:
            raise ValueError(
                f"time moved backwards on {self.executor_id}: "
                f"{time} < {self._last_update}"
            )
        elapsed = max(0.0, time - self._last_update)
        if elapsed > 0 and self.running:
            rate = self._rate()
            for task in self.running:
                old_progress = task.progress
                task.advance(elapsed * rate)
                if task.has_token_model:
                    self._record_token_progress(task, old_progress, rate)
            self.busy_time += elapsed
        self._last_update = float(time)

    def _record_token_progress(self, task: Task, old_progress: float, rate: float) -> None:
        """Token-grain instrumentation for one constant-batch segment.

        Pure observation on top of the legacy progress arithmetic: it reads
        the progress a task accrued between ``old_progress`` and
        ``task.progress`` (both already computed by the unchanged
        ``task.advance`` call) and derives token events from the
        prefill/decode decomposition.  ``self._last_update`` is still the
        segment start time when this runs.
        """
        # First token: progress crossed the prefill boundary this segment.
        if task.first_token_time is None and task.progress >= task.prefill_work:
            crossing = (task.prefill_work - old_progress) / rate
            task.first_token_time = self._last_update + max(0.0, crossing)
        # Inter-token latency: one sample per segment in which the task
        # emitted at least one whole decode token.  At a constant batch rate
        # every decode token takes per_token_decode_work / rate wall-clock
        # seconds, so the sample value is exact, not an average.
        per_token = task.per_token_decode_work()
        if per_token is None or per_token <= 0:
            return
        old_tokens = math.floor(max(0.0, old_progress - task.prefill_work) / per_token)
        new_tokens = math.floor(max(0.0, task.progress - task.prefill_work) / per_token)
        if new_tokens > old_tokens:
            self.itl_samples.append(per_token / rate)

    def drain_itl_samples(self) -> List[float]:
        """Hand the accumulated ITL samples to the caller and reset."""
        samples = self.itl_samples
        self.itl_samples = []
        return samples

    def add_task(self, task: Task, time: float) -> None:
        """Admit a new request to the batch at ``time``."""
        if task.task_type is not TaskType.LLM:
            raise ValueError(f"executor {self.executor_id} only runs LLM tasks")
        if self.free_slots <= 0:
            raise RuntimeError(f"executor {self.executor_id} batch is full")
        self.advance_to(time)
        task.mark_running(time, self.executor_id)
        self.running.append(task)

    def next_completion(self) -> Optional[Tuple[float, Task]]:
        """(absolute finish time, task) of the earliest-finishing request.

        Assumes the batch composition stays as it is now; the engine
        re-queries after every change.
        """
        if not self.running:
            return None
        best_task = min(self.running, key=lambda t: (t.remaining_work, t.uid))
        return self.completion_time_of(best_task), best_task

    def completion_time_of(self, task: Task) -> float:
        """Absolute finish time of ``task`` if the batch stays as it is now.

        While the batch composition is unchanged, every request progresses at
        the same rate, so the earliest-finishing *task* stays the same even
        though progress accrues; the engine's fast path caches that task and
        re-derives its finish time from current executor state with this
        method (the same arithmetic as :meth:`next_completion`).
        """
        rate = self._rate()
        return self._last_update + task.remaining_work / rate

    def finish_task(self, task: Task, time: float, *, eps: float) -> None:
        """Complete ``task`` at ``time`` and remove it from the batch.

        ``eps`` is the remaining-work tolerance below which a task counts as
        done; the simulation engine passes its configured epsilon through so
        the engine and the executor agree on what "finished" means.
        """
        if task not in self.running:
            raise RuntimeError(f"task {task.key()} is not running on {self.executor_id}")
        self.advance_to(time)
        if task.remaining_work > eps:
            raise RuntimeError(
                f"task {task.key()} still has {task.remaining_work:.6f}s of work"
            )
        if task.has_token_model and task.first_token_time is None:
            # Zero-elapsed edge (e.g. zero-work requests): the first token
            # is emitted at completion.
            task.first_token_time = float(time)
        task.mark_finished(time)
        self.running.remove(task)

    def preempt_task(self, task: Task, time: float, checkpoint: bool = True) -> float:
        """Checkpoint ``task`` out of the batch back to PENDING at ``time``.

        Progress is accrued up to ``time`` first (at the pre-removal batch
        rate), then banked on the task unless ``checkpoint=False``.  The
        remaining batch speeds up from ``time`` onwards, exactly as if the
        request had finished.  Returns the work wasted (0 if checkpointed).
        """
        if task not in self.running:
            raise RuntimeError(f"task {task.key()} is not running on {self.executor_id}")
        self.advance_to(time)
        wasted = task.mark_preempted(checkpoint=checkpoint)
        self.running.remove(task)
        return wasted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LLMExecutor({self.executor_id}, batch={self.batch_size}/"
            f"{self.max_batch_size})"
        )
