"""Sequence sorting (Graph-of-Thoughts) — a *predefined* application.

The LLM splits the input sequence into two halves, sorts each half with
several candidate generations that are scored and selected by user-defined
functions, merges the sorted halves, and refines the merged result.  The DAG
is fixed; the uncertainty is purely in stage durations, which all scale with
the input sequence length (hence the strong inter-stage correlations of the
paper's Fig. 5a).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import LatentScaledDuration, sample_lognormal
from repro.workloads.datasets import SyntheticSequenceDataset

__all__ = ["SequenceSortingApplication"]


class SequenceSortingApplication(ApplicationTemplate):
    """Generator for sequence-sorting jobs (predefined category)."""

    name = "sequence_sorting"
    category = "predefined"

    #: Number of candidate generations per sort stage (Graph-of-Thoughts uses
    #: several parallel samples per transformation).
    CANDIDATES_PER_SORT = 3

    #: Spread of the per-job "verbosity" factor: jobs whose LLM happens to
    #: produce long outputs are uniformly slow across all their LLM stages,
    #: which is the source of the strong inter-stage correlations in Fig. 5a.
    VERBOSITY_SIGMA = 0.45

    # Duration models: latent = sequence length (16-64 elements).
    _DURATIONS: Dict[str, LatentScaledDuration] = {
        "ss_split": LatentScaledDuration(base=1.0, scale_per_unit=0.18, noise_sigma=0.18),
        "ss_select_1": LatentScaledDuration(base=0.3, scale_per_unit=0.0, noise_sigma=0.1),
        "ss_select_2": LatentScaledDuration(base=0.3, scale_per_unit=0.0, noise_sigma=0.1),
        # per-candidate duration of each half-sort (latent halves the length)
        "ss_sort_1": LatentScaledDuration(base=0.8, scale_per_unit=0.12, noise_sigma=0.2),
        "ss_sort_2": LatentScaledDuration(base=0.8, scale_per_unit=0.12, noise_sigma=0.2),
        "ss_score_1": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
        "ss_score_2": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
        "ss_merge": LatentScaledDuration(base=1.5, scale_per_unit=0.28, noise_sigma=0.2),
        "ss_score_merge": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
        "ss_refine": LatentScaledDuration(base=1.2, scale_per_unit=0.22, noise_sigma=0.2),
        "ss_score_final": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
    }

    _STAGE_TYPES: Dict[str, StageType] = {
        "ss_split": StageType.LLM,
        "ss_select_1": StageType.REGULAR,
        "ss_select_2": StageType.REGULAR,
        "ss_sort_1": StageType.LLM,
        "ss_sort_2": StageType.LLM,
        "ss_score_1": StageType.REGULAR,
        "ss_score_2": StageType.REGULAR,
        "ss_merge": StageType.LLM,
        "ss_score_merge": StageType.REGULAR,
        "ss_refine": StageType.LLM,
        "ss_score_final": StageType.REGULAR,
    }

    _EDGES: List[Tuple[str, str]] = [
        ("ss_split", "ss_select_1"),
        ("ss_split", "ss_select_2"),
        ("ss_select_1", "ss_sort_1"),
        ("ss_select_2", "ss_sort_2"),
        ("ss_sort_1", "ss_score_1"),
        ("ss_sort_2", "ss_score_2"),
        ("ss_score_1", "ss_merge"),
        ("ss_score_2", "ss_merge"),
        ("ss_merge", "ss_score_merge"),
        ("ss_score_merge", "ss_refine"),
        ("ss_refine", "ss_score_final"),
    ]

    def __init__(self, dataset: Optional[SyntheticSequenceDataset] = None) -> None:
        self.dataset = dataset or SyntheticSequenceDataset()

    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        return list(self._DURATIONS)

    def profile_edges(self) -> List[Tuple[str, str]]:
        return list(self._EDGES)

    def llm_profile_keys(self) -> List[str]:
        return [k for k, t in self._STAGE_TYPES.items() if t is StageType.LLM]

    # ------------------------------------------------------------------ #
    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        sequence_length = query.size
        # Job-level verbosity: shared by every LLM stage of this job.
        verbosity = sample_lognormal(rng, 1.0, self.VERBOSITY_SIGMA)
        draws: List[StageDraw] = []
        for key, stage_type in self._STAGE_TYPES.items():
            model = self._DURATIONS[key]
            if key in ("ss_sort_1", "ss_sort_2"):
                # Candidate generations over one half of the sequence.
                durations = [
                    model.sample(rng, sequence_length / 2.0) * verbosity
                    for _ in range(self.CANDIDATES_PER_SORT)
                ]
            elif stage_type is StageType.LLM:
                durations = [model.sample(rng, sequence_length) * verbosity]
            else:
                durations = [model.sample(rng, 0.0)]
            draws.append(
                StageDraw(
                    spec=StageSpec(
                        stage_id=key,
                        stage_type=stage_type,
                        name=key,
                        num_tasks=len(durations),
                        profile_key=key,
                    ),
                    task_durations=durations,
                )
            )
        return JobDraw(draws, self._EDGES)
