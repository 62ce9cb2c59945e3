"""Dynamic-stage support: candidate sets and their uncertainty.

A dynamic stage is a placeholder for stages an LLM planner generates at
runtime.  The *candidate set* lists everything the planner may invoke (the
paper's example: text translation, image segmentation, object detection for
task automation).  An application template draws each job's selected
candidates and their dependencies when it builds the job;
:func:`dynamic_stage_entropy` is the uncertainty of the set before the
planner runs (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bayes.information import binary_entropy

__all__ = ["StageCandidate", "dynamic_stage_entropy"]


@dataclass(frozen=True)
class StageCandidate:
    """One entry of a dynamic stage's candidate set.

    ``selection_probability`` is the historical frequency with which the
    planner selects this candidate; it drives both workload generation and
    the entropy-based uncertainty of the dynamic stage (Eq. 4).
    """

    name: str
    is_llm: bool = False
    mean_duration: float = 1.0
    selection_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_duration < 0:
            raise ValueError("mean_duration must be >= 0")
        if not 0.0 <= self.selection_probability <= 1.0:
            raise ValueError("selection_probability must be within [0, 1]")


def dynamic_stage_entropy(
    candidates: Sequence[StageCandidate],
    edge_probability: float = 0.5,
) -> float:
    """Uncertainty of a dynamic stage: node entropy plus edge entropy (Eq. 4).

    Every candidate contributes the entropy of its selection indicator; every
    potential edge between ordered candidate pairs contributes the entropy of
    its existence indicator (``edge_probability`` is the historical frequency
    of an edge between two selected candidates).
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be within [0, 1]")
    node_entropy = sum(binary_entropy(c.selection_probability) for c in candidates)
    n = len(candidates)
    possible_edges = n * (n - 1) // 2
    edge_entropy = possible_edges * binary_entropy(edge_probability)
    return float(node_entropy + edge_entropy)
