"""Stages of the LLM DAG model (regular / LLM / dynamic)."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dag.task import Task, TaskState, TaskType

__all__ = ["StageType", "StageState", "StageSpec", "Stage"]


class StageType(enum.Enum):
    """The three stage kinds of the paper's DAG model (Section IV-A)."""

    REGULAR = "regular"
    LLM = "llm"
    DYNAMIC = "dynamic"


class StageState(enum.Enum):
    """Runtime lifecycle of a stage.

    ``SKIPPED`` covers padded chain iterations that the job never reaches and
    dynamic-stage candidates the planner did not select: they complete
    instantly with zero duration when their dependencies finish, matching the
    paper's convention of treating unexecuted stages as duration 0.
    """

    BLOCKED = "blocked"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class StageSpec:
    """Static description of a stage inside an application template.

    ``profile_key`` groups stages across jobs of the same application for
    profiling: e.g. every first "code gen" iteration shares a key so the
    Bayesian network can learn its duration distribution from history.
    """

    stage_id: str
    stage_type: StageType
    name: str = ""
    num_tasks: int = 1
    profile_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_tasks < 0:
            raise ValueError(f"num_tasks must be >= 0, got {self.num_tasks}")

    @property
    def key(self) -> str:
        return self.profile_key or self.stage_id


class Stage:
    """Runtime stage: a set of tasks plus bookkeeping state.

    Parameters
    ----------
    spec:
        The static description of this stage.
    job_id:
        Identifier of the owning job.
    task_durations:
        Ground-truth work of each task (seconds at batch size 1 for LLM
        tasks).  An empty list is allowed for placeholder stages.
    will_execute:
        Ground truth — padded chain stages beyond the job's actual length and
        unselected dynamic candidates carry ``False`` and are skipped at
        runtime.
    visible:
        Whether schedulers can currently see the stage.  Stages generated by
        a planner stay invisible until the planner finishes.
    """

    def __init__(
        self,
        spec: StageSpec,
        job_id: str,
        task_durations: Sequence[float],
        will_execute: bool = True,
        visible: bool = True,
    ) -> None:
        self.spec = spec
        self.job_id = job_id
        self.will_execute = bool(will_execute)
        self.visible = bool(visible)
        self.state = StageState.BLOCKED
        self.finish_time: Optional[float] = None
        # Stage IDs generated inside this stage (only used by dynamic stages).
        self.inner_stage_ids: List[str] = []

        task_type = TaskType.LLM if spec.stage_type is StageType.LLM else TaskType.REGULAR
        self.tasks: List[Task] = [
            Task(
                job_id=job_id,
                stage_id=spec.stage_id,
                task_type=task_type,
                work=float(duration),
                index=i,
            )
            for i, duration in enumerate(task_durations)
        ]
        # The PENDING tasks in index order, kept by Task.mark_running and
        # Task.mark_preempted through each task's back-reference.
        self._pending: List[Task] = list(self.tasks)
        for task in self.tasks:
            task._stage = self

    # ------------------------------------------------------------------ #
    # Identity and typing helpers
    # ------------------------------------------------------------------ #
    @property
    def stage_id(self) -> str:
        return self.spec.stage_id

    @property
    def stage_type(self) -> StageType:
        return self.spec.stage_type

    @property
    def profile_key(self) -> str:
        return self.spec.key

    @property
    def is_llm(self) -> bool:
        return self.spec.stage_type is StageType.LLM

    @property
    def is_dynamic(self) -> bool:
        return self.spec.stage_type is StageType.DYNAMIC

    # ------------------------------------------------------------------ #
    # Task-level views
    # ------------------------------------------------------------------ #
    def pending_tasks(self) -> List[Task]:
        """The PENDING tasks in index order, as a new list.

        The stage keeps this list at every task transition: placement
        (:meth:`Task.mark_running`) takes a task out, and preemption
        (:meth:`Task.mark_preempted`, also how a migrating job gives up its
        executors) puts it back at its index position.  So the call copies
        the list instead of filtering every task's state.
        """
        return list(self._pending)

    def running_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.state is TaskState.RUNNING]

    def all_tasks_finished(self) -> bool:
        return all(t.is_finished for t in self.tasks)

    @property
    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    @property
    def duration(self) -> float:
        """Ground-truth total work of the stage (0 for skipped stages)."""
        return self.total_work if self.will_execute else 0.0

    @property
    def executed_duration(self) -> Optional[float]:
        """Observed duration once the stage finished, 0 if skipped.

        ``None`` while the stage is still pending/running — this is the value
        fed to the profiler as evidence.
        """
        if self.state is StageState.SKIPPED:
            return 0.0
        if self.state is StageState.FINISHED:
            return self.total_work
        return None

    # ------------------------------------------------------------------ #
    # State transitions (driven by the owning Job / simulator)
    # ------------------------------------------------------------------ #
    def mark_ready(self, time: Optional[float] = None) -> None:
        if self.state is not StageState.BLOCKED:
            raise RuntimeError(f"stage {self.stage_id} cannot become ready from {self.state}")
        self.state = StageState.READY
        if time is not None:
            # Serving-metric anchor: the moment a task became schedulable.
            # Only the first READY transition stamps it, so TTFT always
            # measures from initial eligibility, never from a re-queue.
            for task in self.tasks:
                if task.ready_time is None:
                    task.ready_time = float(time)

    def mark_running(self) -> None:
        if self.state not in (StageState.READY, StageState.RUNNING):
            raise RuntimeError(f"stage {self.stage_id} cannot run from {self.state}")
        self.state = StageState.RUNNING

    def mark_finished(self, time: float) -> None:
        if not self.all_tasks_finished():
            raise RuntimeError(f"stage {self.stage_id} has unfinished tasks")
        self.state = StageState.FINISHED
        self.finish_time = float(time)

    def mark_skipped(self, time: float) -> None:
        if self.state in (StageState.FINISHED, StageState.SKIPPED):
            return
        if any(t.state is not TaskState.PENDING for t in self.tasks):
            raise RuntimeError(f"stage {self.stage_id} already started; cannot skip")
        self.state = StageState.SKIPPED
        self.finish_time = float(time)

    @property
    def is_complete(self) -> bool:
        """Finished or skipped — either way its dependants may proceed."""
        return self.state in (StageState.FINISHED, StageState.SKIPPED)

    def snapshot_clone(self) -> "Stage":
        """A structural copy for copy-on-write snapshot views.

        The frozen :class:`StageSpec` is shared; mutable runtime state
        (``state``, ``finish_time``, ``visible``, ``will_execute``, the
        task list and the dynamic-stage id list) is copied.  The cloned
        tasks point back at the clone, whose pending list holds them.
        """
        clone = copy.copy(self)
        clone.inner_stage_ids = list(self.inner_stage_ids)
        clone.tasks = [task.snapshot_clone() for task in self.tasks]
        for task in clone.tasks:
            task._stage = clone
        clone._pending = [task for task in clone.tasks if task.state is TaskState.PENDING]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stage({self.job_id}/{self.stage_id}, {self.stage_type.value}, "
            f"tasks={len(self.tasks)}, {self.state.value})"
        )
