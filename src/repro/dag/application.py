"""Application templates: generative descriptions of compound LLM applications.

An :class:`ApplicationTemplate` knows how to sample a ground-truth
:class:`~repro.dag.job.Job` (structure plus durations) and exposes the static
profiling view the LLMSched profiler consumes: the list of profile variables
(one per padded stage) and the static DAG over them.

The six concrete applications of the paper live in :mod:`repro.workloads`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.dag.dynamic import StageCandidate
from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType

__all__ = ["ApplicationTemplate", "JobBuildError", "StageDraw"]


class JobBuildError(RuntimeError):
    """Raised when a template produces an inconsistent job description."""


@dataclass
class StageDraw:
    """One sampled stage used by :meth:`ApplicationTemplate.build_job`.

    Attributes
    ----------
    spec:
        Static stage description (id, type, profile key, nominal task count).
    task_durations:
        Ground-truth work of each task.
    will_execute:
        False for padded iterations / unselected candidates.
    visible:
        False for stages revealed only after a planner completes.
    """

    spec: StageSpec
    task_durations: Sequence[float] = field(default_factory=list)
    will_execute: bool = True
    visible: bool = True


class ApplicationTemplate(abc.ABC):
    """Base class for compound LLM application generators."""

    #: Short identifier, e.g. ``"sequence_sorting"``.
    name: str = "application"
    #: Application category: "predefined", "chain" or "planning".
    category: str = "predefined"

    # ------------------------------------------------------------------ #
    # Sampling interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sample_job(
        self, job_id: str, arrival_time: float, rng: np.random.Generator
    ) -> Job:
        """Sample a ground-truth job instance of this application."""

    # ------------------------------------------------------------------ #
    # Profiling interface (consumed by the Bayesian profiler)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def profile_variables(self) -> List[str]:
        """Profile keys of every (padded) stage, in topological order."""

    @abc.abstractmethod
    def profile_edges(self) -> List[Tuple[str, str]]:
        """Static data-flow edges between profile keys."""

    def dynamic_candidates(self) -> Dict[str, List[StageCandidate]]:
        """Candidate sets of dynamic stages, keyed by the dynamic stage's profile key."""
        return {}

    def llm_profile_keys(self) -> List[str]:
        """Profile keys of LLM stages (used by batching-aware calibration).

        The default implementation samples one job and inspects its stages;
        templates with data-dependent structure may override.
        """
        job = self.sample_job("__probe__", 0.0, np.random.default_rng(0))
        keys = []
        for stage in job.stages.values():
            if stage.is_llm and stage.profile_key not in keys:
                keys.append(stage.profile_key)
        return keys

    # ------------------------------------------------------------------ #
    # Construction helper shared by all templates
    # ------------------------------------------------------------------ #
    def build_job(
        self,
        job_id: str,
        arrival_time: float,
        draws: Sequence[StageDraw],
        edges: Iterable[Tuple[str, str]],
        reveals: Iterable[Tuple[str, str]] = (),
    ) -> Job:
        """Assemble and finalize a :class:`Job` from sampled stages."""
        job = Job(job_id, self.name, arrival_time)
        seen = set()
        for draw in draws:
            if draw.spec.stage_id in seen:
                raise JobBuildError(
                    f"{self.name}: duplicate stage id {draw.spec.stage_id!r}"
                )
            seen.add(draw.spec.stage_id)
            if draw.spec.stage_type is StageType.LLM and not draw.task_durations and draw.will_execute:
                raise JobBuildError(
                    f"{self.name}: LLM stage {draw.spec.stage_id!r} has no tasks"
                )
            stage = Stage(
                spec=draw.spec,
                job_id=job_id,
                task_durations=list(draw.task_durations),
                will_execute=draw.will_execute,
                visible=draw.visible,
            )
            job.add_stage(stage)
        try:
            for parent, child in edges:
                job.add_dependency(parent, child)
            for trigger, revealed in reveals:
                job.add_reveal(trigger, revealed)
            job.finalize()
        except ValueError as exc:
            raise JobBuildError(f"{self.name}: {exc}") from exc
        return job

    # ------------------------------------------------------------------ #
    # Historical summaries used by baseline schedulers
    # ------------------------------------------------------------------ #
    def estimate_mean_duration(
        self, rng: np.random.Generator, n_samples: int = 50
    ) -> float:
        """Monte-Carlo estimate of the mean total work of one job.

        Baselines such as SJF use this as the per-application "historical
        average duration" prior; LLMSched's profiler replaces it with the
        Bayesian posterior.
        """
        if n_samples <= 0:
            raise ValueError("n_samples must be > 0")
        totals = []
        for i in range(n_samples):
            job = self.sample_job(f"__est__{i}", 0.0, rng)
            totals.append(job.true_total_work)
        return float(np.mean(totals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, category={self.category!r})"
