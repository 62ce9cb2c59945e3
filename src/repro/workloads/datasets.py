"""Synthetic stand-ins for the datasets used in the paper's evaluation.

The paper drives its six applications with real datasets: a synthetic
sequence dataset (sequence sorting), GoT's document set (document merging),
MBPP (code generation), HotpotQA (web search and LLMCompiler), and TaskBench
(task automation).  None of those are available offline, so each dataset here
is a deterministic synthetic generator that exposes the *properties the
applications actually consume*: per-query size/difficulty latents whose
ranges match the figures the paper reports (sequence lengths 16–64, chain
lengths 3–15, 1–8 generated stages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.rng import make_rng

__all__ = [
    "Query",
    "SyntheticSequenceDataset",
    "MbppLikeDataset",
    "HotpotQaLikeDataset",
    "TaskBenchLikeDataset",
]


@dataclass(frozen=True)
class Query:
    """One dataset entry.

    Attributes
    ----------
    query_id:
        Stable identifier within the dataset.
    size:
        Input-size latent (e.g. sequence length, document length, plan size).
    difficulty:
        Difficulty latent in [0, 1] driving retries/iterations.
    """

    query_id: int
    size: float
    difficulty: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must be within [0, 1]")


class _SyntheticDataset:
    """Base class: a fixed-size list of queries generated from a seed."""

    def __init__(self, size: int, seed: int = 0) -> None:
        if size <= 0:
            raise ValueError("dataset size must be > 0")
        self._queries = self._generate(size, make_rng(seed))

    def _generate(self, size: int, rng: np.random.Generator) -> List[Query]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, index: int) -> Query:
        return self._queries[index]

    def sample(self, rng: np.random.Generator) -> Query:
        """Draw one query uniformly at random (with replacement)."""
        return self._queries[int(rng.integers(0, len(self._queries)))]


class SyntheticSequenceDataset(_SyntheticDataset):
    """500 random sequences of length 16–64 (paper Section III-A)."""

    def __init__(self, size: int = 500, seed: int = 0) -> None:
        super().__init__(size, seed)

    def _generate(self, size: int, rng: np.random.Generator) -> List[Query]:
        lengths = rng.integers(16, 65, size)
        difficulties = rng.uniform(0.0, 1.0, size)
        return [
            Query(query_id=i, size=float(lengths[i]), difficulty=float(difficulties[i]))
            for i in range(size)
        ]


class MbppLikeDataset(_SyntheticDataset):
    """974 programming tasks mimicking MBPP difficulty spread.

    ``difficulty`` controls how many Reflexion iterations a job needs and how
    long each code-generation call runs; ``size`` is a proxy for the length of
    the generated program.
    """

    def __init__(self, size: int = 974, seed: int = 1) -> None:
        super().__init__(size, seed)

    def _generate(self, size: int, rng: np.random.Generator) -> List[Query]:
        # Most MBPP problems are easy; a minority require several repair
        # rounds.  A Beta(1.6, 3.2) captures that skew.
        difficulties = rng.beta(1.6, 3.2, size)
        sizes = rng.uniform(20.0, 120.0, size)
        return [
            Query(query_id=i, size=float(sizes[i]), difficulty=float(difficulties[i]))
            for i in range(size)
        ]


class HotpotQaLikeDataset(_SyntheticDataset):
    """Multi-hop question-answering queries (web search, LLMCompiler).

    ``size`` is the number of supporting facts (hops, 2–6); ``difficulty``
    drives how many reasoning rounds the agent takes.
    """

    def __init__(self, size: int = 1200, seed: int = 2) -> None:
        super().__init__(size, seed)

    def _generate(self, size: int, rng: np.random.Generator) -> List[Query]:
        hops = rng.integers(2, 7, size)
        difficulties = rng.beta(2.0, 2.5, size)
        return [
            Query(query_id=i, size=float(hops[i]), difficulty=float(difficulties[i]))
            for i in range(size)
        ]


class TaskBenchLikeDataset(_SyntheticDataset):
    """Task-automation queries (TaskBench): complexity drives the plan size.

    ``size`` is the nominal number of tools the query needs (1–8, matching
    Fig. 1c); ``difficulty`` shifts tool durations.
    """

    def __init__(self, size: int = 2000, seed: int = 3) -> None:
        super().__init__(size, seed)

    def _generate(self, size: int, rng: np.random.Generator) -> List[Query]:
        # Plan sizes follow the skewed distribution of Fig. 1c: most plans are
        # small (1-3 tools), a tail needs many tools.
        plan_sizes = 1 + rng.binomial(7, 0.22, size)
        difficulties = rng.uniform(0.0, 1.0, size)
        return [
            Query(query_id=i, size=float(plan_sizes[i]), difficulty=float(difficulties[i]))
            for i in range(size)
        ]
