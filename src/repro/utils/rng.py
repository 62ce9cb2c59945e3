"""Deterministic random-number-generator helpers.

Every stochastic component in the library (workload generators, the cluster
simulator, the schedulers that randomise) receives an explicit
:class:`numpy.random.Generator`.  Global random state is never used, so every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread one generator through
    a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
