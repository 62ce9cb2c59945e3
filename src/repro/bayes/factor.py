"""Discrete factors: the workhorse of exact Bayesian-network inference.

A factor is a non-negative table indexed by a tuple of named discrete
variables.  Conditional probability distributions, intermediate products
during variable elimination, and posterior marginals are all factors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

__all__ = ["DiscreteFactor", "normalized"]


def normalized(values: np.ndarray) -> np.ndarray:
    """``values`` scaled so that all entries sum to 1.

    An array that sums to zero (impossible evidence) becomes uniform, which
    is the safest behaviour for downstream expectation estimates.
    """
    total = float(values.sum())
    if total <= 0.0:
        return np.full(values.shape, 1.0 / values.size)
    return values / total


class DiscreteFactor:
    """A table over a set of named discrete variables.

    Parameters
    ----------
    variables:
        Ordered variable names; the order matches the axes of ``values``.
    cardinalities:
        Mapping from variable name to the number of states it can take.
    values:
        Array (or nested sequence) with one axis per variable, in the order of
        ``variables``.  Values must be finite and non-negative.
    """

    def __init__(
        self,
        variables: Sequence[str],
        cardinalities: Mapping[str, int],
        values: np.ndarray,
    ) -> None:
        self.variables: List[str] = list(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in factor: {self.variables}")
        self.cardinalities: Dict[str, int] = {v: int(cardinalities[v]) for v in self.variables}
        for name, card in self.cardinalities.items():
            if card <= 0:
                raise ValueError(f"cardinality of {name!r} must be positive, got {card}")
        expected_shape = tuple(self.cardinalities[v] for v in self.variables)
        array = np.asarray(values, dtype=float)
        if array.shape != expected_shape:
            raise ValueError(
                f"values shape {array.shape} does not match cardinalities {expected_shape}"
            )
        if not np.isfinite(array).all():
            raise ValueError("factor values must be finite")
        if np.any(array < -1e-12):
            raise ValueError("factor values must be non-negative")
        self.values = np.clip(array, 0.0, None)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls) -> "DiscreteFactor":
        """The scalar factor 1 — neutral element of factor product."""
        return cls([], {}, np.asarray(1.0))

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def product(self, other: "DiscreteFactor") -> "DiscreteFactor":
        """Pointwise product of two factors over the union of their variables."""
        all_vars = list(self.variables)
        for var in other.variables:
            if var not in all_vars:
                all_vars.append(var)
        cards: Dict[str, int] = {}
        for var in all_vars:
            card_self = self.cardinalities.get(var)
            card_other = other.cardinalities.get(var)
            if card_self is not None and card_other is not None and card_self != card_other:
                raise ValueError(
                    f"cardinality mismatch for {var!r}: {card_self} vs {card_other}"
                )
            cards[var] = card_self if card_self is not None else int(card_other)

        left = self._broadcast_to(all_vars, cards)
        right = other._broadcast_to(all_vars, cards)
        return DiscreteFactor(all_vars, cards, left * right)

    def _broadcast_to(self, all_vars: List[str], cards: Mapping[str, int]) -> np.ndarray:
        """Return values reshaped/expanded so the axes follow ``all_vars``."""
        target_shape = tuple(int(cards[v]) for v in all_vars)
        if not self.variables:
            return np.broadcast_to(self.values, target_shape).copy()
        # Reorder own axes to match the relative order of all_vars, then
        # insert singleton axes for variables this factor does not contain.
        present = [v for v in all_vars if v in self.variables]
        perm = [self.variables.index(v) for v in present]
        reordered = self.values.transpose(perm)
        shape_with_singletons = tuple(
            self.cardinalities[v] if v in self.cardinalities else 1 for v in all_vars
        )
        reshaped = reordered.reshape(shape_with_singletons)
        return np.broadcast_to(reshaped, target_shape).copy()

    def marginalize(self, variables: Iterable[str]) -> "DiscreteFactor":
        """Sum out the given variables."""
        to_remove = [v for v in variables]
        for var in to_remove:
            if var not in self.variables:
                raise ValueError(f"variable {var!r} not in factor {self.variables}")
        axes = tuple(self.variables.index(v) for v in to_remove)
        remaining = [v for v in self.variables if v not in to_remove]
        values = self.values.sum(axis=axes) if axes else self.values.copy()
        cards = {v: self.cardinalities[v] for v in remaining}
        return DiscreteFactor(remaining, cards, values)

    def reduce(self, evidence: Mapping[str, int]) -> "DiscreteFactor":
        """Condition on observed states (drops the observed variables)."""
        relevant = {v: s for v, s in evidence.items() if v in self.variables}
        indexer: List[object] = []
        remaining: List[str] = []
        for var in self.variables:
            if var in relevant:
                state = int(relevant[var])
                if not 0 <= state < self.cardinalities[var]:
                    raise ValueError(
                        f"state {state} out of range for {var!r} "
                        f"(cardinality {self.cardinalities[var]})"
                    )
                indexer.append(state)
            else:
                indexer.append(slice(None))
                remaining.append(var)
        values = self.values[tuple(indexer)]
        cards = {v: self.cardinalities[v] for v in remaining}
        return DiscreteFactor(remaining, cards, values)

    def normalize(self) -> "DiscreteFactor":
        """Return a copy scaled by :func:`normalized`."""
        return DiscreteFactor(self.variables, self.cardinalities, normalized(self.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscreteFactor(variables={self.variables}, shape={self.values.shape})"
