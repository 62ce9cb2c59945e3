"""Application templates: generative descriptions of compound LLM applications.

An :class:`ApplicationTemplate` samples a ground-truth job as a
:class:`JobDraw` (stages with their durations, dependencies, reveals) and
builds runtime :class:`~repro.dag.job.Job` objects from draws; offline
readers use the draws alone.  It also exposes the static profiling view the
LLMSched profiler consumes: the list of profile variables (one per padded
stage) and the static DAG over them.

The six concrete applications of the paper live in :mod:`repro.workloads`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.dag.dynamic import StageCandidate
from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.utils.graph import DiGraph

__all__ = ["ApplicationTemplate", "JobBuildError", "JobDraw", "StageDraw"]


class JobBuildError(RuntimeError):
    """Raised when a template produces an inconsistent job description."""


@dataclass
class StageDraw:
    """One sampled stage of a :class:`JobDraw`.

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

    @property
    def duration(self) -> float:
        """Ground-truth total work, 0 when skipped: :attr:`Stage.duration` of the built stage."""
        return sum(float(d) for d in self.task_durations) if self.will_execute else 0.0


@dataclass
class JobDraw:
    """One sampled job before it is built: stages in order, dependencies, reveals."""

    stages: List[StageDraw]
    edges: Sequence[Tuple[str, str]]
    #: (trigger, revealed): completing the trigger stage makes ``revealed`` visible.
    reveals: Sequence[Tuple[str, str]] = ()


class ApplicationTemplate(abc.ABC):
    """Base class for compound LLM application generators.

    Subclasses implement :meth:`sample_draw` and the profiling interface.
    :meth:`sample_job` builds a runtime job from one draw.  Offline readers
    (profiler, priors, cluster sizing) take :meth:`sample_draws`, which use
    the generator exactly as that many jobs would, and never build a job.
    """

    #: Short identifier, e.g. ``"sequence_sorting"``.
    name: str = "application"
    #: Application category: "predefined", "chain" or "planning".
    category: str = "predefined"

    # ------------------------------------------------------------------ #
    # Sampling interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        """Sample the stages, dependencies and reveals of one ground-truth job."""

    def sample_job(
        self, job_id: str, arrival_time: float, rng: np.random.Generator
    ) -> Job:
        """Sample a ground-truth job instance of this application."""
        return self.build_job(job_id, arrival_time, self.sample_draw(rng))

    def sample_draws(self, rng: np.random.Generator, count: int) -> List[JobDraw]:
        """``count`` checked draws, using ``rng`` as ``count`` :meth:`sample_job` calls would."""
        return [self.check_draw(self.sample_draw(rng)) for _ in range(count)]

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

        The default implementation samples one draw and inspects its stages;
        templates with data-dependent structure may override.
        """
        (draw,) = self.sample_draws(np.random.default_rng(0), 1)
        llm = (s.spec.key for s in draw.stages if s.spec.stage_type is StageType.LLM)
        return list(dict.fromkeys(llm))

    # ------------------------------------------------------------------ #
    # Construction helpers shared by all templates
    # ------------------------------------------------------------------ #
    def check_draw(self, draw: JobDraw) -> JobDraw:
        """Return ``draw`` if it describes a valid job, else raise :class:`JobBuildError`.

        Every draw passes here, built or not: :meth:`build_job` and
        :meth:`sample_draws` both call it.  Offline readers take task
        durations from draws alone, so each must be finite and non-negative.
        """
        graph = DiGraph()
        ids: Set[str] = set()
        for stage in draw.stages:
            stage_id = stage.spec.stage_id
            if stage_id in ids:
                raise JobBuildError(f"{self.name}: duplicate stage id {stage_id!r}")
            is_llm = stage.spec.stage_type is StageType.LLM
            if is_llm and stage.will_execute and not stage.task_durations:
                raise JobBuildError(f"{self.name}: LLM stage {stage_id!r} has no tasks")
            for duration in stage.task_durations:
                if not 0.0 <= duration < math.inf:
                    raise JobBuildError(
                        f"{self.name}: stage {stage_id!r} has task duration {duration!r}"
                    )
            ids.add(stage_id)
            graph.add_node(stage_id)
        for pair in (*draw.edges, *draw.reveals):
            for stage_id in pair:
                if stage_id not in ids:
                    raise JobBuildError(f"{self.name}: unknown stage {stage_id!r} in {pair}")
        for parent, child in draw.edges:
            try:
                graph.add_edge(parent, child)
            except ValueError as exc:
                raise JobBuildError(f"{self.name}: {exc}") from None
        if not ids:
            raise JobBuildError(f"{self.name}: the draw has no stages")
        return draw

    def build_job(self, job_id: str, arrival_time: float, draw: JobDraw) -> Job:
        """Assemble and finalize a :class:`Job` from a draw (checked first)."""
        self.check_draw(draw)
        job = Job(job_id, self.name, arrival_time)
        for stage in draw.stages:
            job.add_stage(
                Stage(
                    spec=stage.spec,
                    job_id=job_id,
                    task_durations=stage.task_durations,
                    will_execute=stage.will_execute,
                    visible=stage.visible,
                )
            )
        for parent, child in draw.edges:
            job.add_dependency(parent, child)
        for trigger, revealed in draw.reveals:
            job.add_reveal(trigger, revealed)
        job.finalize()
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
        draws = self.sample_draws(rng, n_samples)
        return float(np.mean([sum(s.duration for s in draw.stages) for draw in draws]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, category={self.category!r})"
