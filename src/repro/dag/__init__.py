"""LLM DAG model (paper Section IV-A).

A compound LLM application is described by three kinds of stages:

* **regular stages** — non-LLM tasks running on regular executors,
* **LLM stages** — autoregressive inference tasks running on batched LLM
  executors,
* **dynamic stages** — placeholders whose inner stages and dependencies are
  produced at runtime by a preceding LLM (planner) stage.

:class:`~repro.dag.job.Job` is a *runtime instance* of an application: it
carries the ground-truth structure and durations (known only to the
simulator) and exposes the partially-revealed view that schedulers see.
"""

from repro.dag.stage import Stage, StageSpec, StageState, StageType
from repro.dag.task import Task, TaskState, TaskType
from repro.dag.job import Job
from repro.dag.dynamic import StageCandidate
from repro.dag.application import ApplicationTemplate, JobBuildError

__all__ = [
    "Stage",
    "StageSpec",
    "StageState",
    "StageType",
    "Task",
    "TaskState",
    "TaskType",
    "Job",
    "StageCandidate",
    "ApplicationTemplate",
    "JobBuildError",
]
