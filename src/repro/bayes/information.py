"""Entropy and mutual information on discrete distributions and factors.

These implement the quantities of the paper's Section IV-C:

* Shannon entropy ``H(X)`` (Eq. 3),
* mutual information ``I(Y; X)`` (Eq. 5), generalised to joint variable sets,
* conditional mutual information ``I(Y1..YM ; X | E)`` where the evidence E is
  handled by conditioning the network *before* building the joint factor.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.bayes.factor import DiscreteFactor, normalized
from repro.bayes.inference import VariableElimination
from repro.bayes.network import DiscreteBayesianNetwork

__all__ = [
    "entropy_of_distribution",
    "mutual_information",
    "conditional_mutual_information",
    "binary_entropy",
]

_EPS = 1e-12


def entropy_of_distribution(probabilities: Sequence[float]) -> float:
    """Shannon entropy (bits) of a probability vector.

    The vector is normalised defensively; zero entries contribute nothing.
    An array of any shape is read in row-major order.
    """
    probs = np.asarray(probabilities, dtype=float).ravel()
    if probs.size == 0:
        return 0.0
    if np.any(probs < -_EPS):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if total <= 0:
        return 0.0
    probs = probs / total
    nonzero = probs[probs > _EPS]
    return float(-(nonzero * np.log2(nonzero)).sum())


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable, in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be within [0, 1], got {p}")
    return entropy_of_distribution([p, 1.0 - p])


def mutual_information(
    joint: DiscreteFactor,
    left: Sequence[str],
    right: Sequence[str],
) -> float:
    """Mutual information I(left ; right) of a joint factor.

    ``joint`` must contain every variable of both groups.  The result is
    computed as ``H(left) + H(right) - H(left, right)`` which is numerically
    stable and never meaningfully negative.
    """
    left = list(left)
    right = list(right)
    overlap = set(left) & set(right)
    if overlap:
        raise ValueError(f"variable groups overlap: {sorted(overlap)}")
    missing = [v for v in left + right if v not in joint.variables]
    if missing:
        raise ValueError(f"joint factor is missing variables: {missing}")

    variables = joint.variables
    values = normalized(joint.values)
    extra = [v for v in variables if v not in left + right]
    if extra:
        values = _summed_out(variables, values, extra)
        variables = [v for v in variables if v not in extra]

    h_joint = entropy_of_distribution(values)
    h_left = entropy_of_distribution(_summed_out(variables, values, right))
    h_right = entropy_of_distribution(_summed_out(variables, values, left))
    value = h_left + h_right - h_joint
    return max(0.0, float(value))


def _summed_out(variables: Sequence[str], values: np.ndarray, group: Sequence[str]) -> np.ndarray:
    """The distribution ``values`` over ``variables`` with ``group`` summed out, normalised."""
    return normalized(values.sum(axis=tuple(variables.index(v) for v in group)))


def conditional_mutual_information(
    network: DiscreteBayesianNetwork,
    targets: Sequence[str],
    source: str,
    evidence: Optional[Mapping[str, int]] = None,
) -> float:
    """I(targets ; source | evidence) evaluated on a Bayesian network.

    This is the quantity the paper uses to score how much scheduling ``source``
    would reduce uncertainty about the still-unscheduled ``targets`` given the
    durations already observed (``evidence``).
    """
    evidence = dict(evidence or {})
    targets = [t for t in targets if t != source and t not in evidence]
    if not targets:
        return 0.0
    if source in evidence:
        return 0.0
    engine = VariableElimination(network)
    joint = engine.query(list(targets) + [source], evidence)
    return mutual_information(joint, targets, [source])
