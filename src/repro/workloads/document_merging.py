"""Document merging (Graph-of-Thoughts) — a *predefined* application.

Several candidate merges of a set of documents are generated by the LLM,
scored by user-defined functions, aggregated into a refined merge, and scored
again.  Like sequence sorting, the structure is fixed and the uncertainty is
in the durations, which scale with the combined document length.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dag.application import ApplicationTemplate, JobDraw, StageDraw
from repro.dag.stage import StageSpec, StageType
from repro.workloads.base import LatentScaledDuration, sample_lognormal
from repro.workloads.datasets import SyntheticSequenceDataset

__all__ = ["DocumentMergingApplication"]


class _DocumentDataset(SyntheticSequenceDataset):
    """Combined document lengths (in hundreds of tokens), 30-100."""

    def _generate(self, size, rng):
        queries = super()._generate(size, rng)
        return [
            type(q)(query_id=q.query_id, size=float(rng.uniform(30.0, 100.0)), difficulty=q.difficulty)
            for q in queries
        ]


class DocumentMergingApplication(ApplicationTemplate):
    """Generator for document-merging jobs (predefined category)."""

    name = "document_merging"
    category = "predefined"

    #: Candidate merges generated in parallel.
    CANDIDATES = 3

    #: Spread of the per-job verbosity factor shared by both LLM stages.
    VERBOSITY_SIGMA = 0.4

    _DURATIONS: Dict[str, LatentScaledDuration] = {
        # Per-candidate merge generation scales with total document length.
        "dm_generate": LatentScaledDuration(base=1.5, scale_per_unit=0.10, noise_sigma=0.2),
        "dm_score": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
        "dm_aggregate": LatentScaledDuration(base=2.0, scale_per_unit=0.14, noise_sigma=0.2),
        "dm_score_final": LatentScaledDuration(base=0.4, scale_per_unit=0.0, noise_sigma=0.1),
    }

    _STAGE_TYPES: Dict[str, StageType] = {
        "dm_generate": StageType.LLM,
        "dm_score": StageType.REGULAR,
        "dm_aggregate": StageType.LLM,
        "dm_score_final": StageType.REGULAR,
    }

    _EDGES: List[Tuple[str, str]] = [
        ("dm_generate", "dm_score"),
        ("dm_score", "dm_aggregate"),
        ("dm_aggregate", "dm_score_final"),
    ]

    def __init__(self) -> None:
        self.dataset = _DocumentDataset(size=400, seed=11)

    # ------------------------------------------------------------------ #
    def profile_variables(self) -> List[str]:
        return list(self._DURATIONS)

    def profile_edges(self) -> List[Tuple[str, str]]:
        return list(self._EDGES)

    def llm_profile_keys(self) -> List[str]:
        return ["dm_generate", "dm_aggregate"]

    # ------------------------------------------------------------------ #
    def sample_draw(self, rng: np.random.Generator) -> JobDraw:
        query = self.dataset.sample(rng)
        doc_length = query.size
        verbosity = sample_lognormal(rng, 1.0, self.VERBOSITY_SIGMA)
        draws: List[StageDraw] = []
        for key, stage_type in self._STAGE_TYPES.items():
            model = self._DURATIONS[key]
            if key == "dm_generate":
                durations = [
                    model.sample(rng, doc_length) * verbosity for _ in range(self.CANDIDATES)
                ]
            elif key == "dm_score":
                durations = [model.sample(rng, 0.0) for _ in range(self.CANDIDATES)]
            elif stage_type is StageType.LLM:
                durations = [model.sample(rng, doc_length) * verbosity]
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
