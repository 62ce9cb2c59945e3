"""Tabular conditional probability distributions."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.bayes.factor import DiscreteFactor

__all__ = ["TabularCPD"]


class TabularCPD:
    """P(variable | parents) as a table.

    Parameters
    ----------
    variable:
        Name of the child variable.
    cardinality:
        Number of states of the child variable.
    table:
        Array of shape ``(cardinality, prod(parent_cardinalities))`` (or
        ``(cardinality, 1)`` / ``(cardinality,)`` for a root node).  Columns
        index parent assignments in row-major order of ``parents`` — i.e. the
        last parent varies fastest, matching :func:`numpy.ndindex`.
    parents:
        Ordered parent variable names (may be empty).
    parent_cardinalities:
        Mapping from parent name to cardinality.
    """

    def __init__(
        self,
        variable: str,
        cardinality: int,
        table: np.ndarray,
        parents: Optional[Sequence[str]] = None,
        parent_cardinalities: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.variable = variable
        self.cardinality = int(cardinality)
        self.parents: List[str] = list(parents or [])
        self.parent_cardinalities: Dict[str, int] = {
            p: int((parent_cardinalities or {})[p]) for p in self.parents
        }
        if self.cardinality <= 0:
            raise ValueError(f"cardinality of {variable!r} must be positive")

        expected_cols = int(np.prod([self.parent_cardinalities[p] for p in self.parents])) if self.parents else 1
        array = np.asarray(table, dtype=float)
        if array.ndim == 1:
            array = array.reshape(self.cardinality, 1)
        if array.shape != (self.cardinality, expected_cols):
            raise ValueError(
                f"CPD table for {variable!r} has shape {array.shape}, "
                f"expected {(self.cardinality, expected_cols)}"
            )
        if not np.isfinite(array).all():
            raise ValueError(f"CPD table for {variable!r} contains non-finite entries")
        if np.any(array < -1e-12):
            raise ValueError(f"CPD table for {variable!r} contains negative entries")
        column_sums = array.sum(axis=0)
        if np.any(np.abs(column_sums - 1.0) > 1e-6):
            raise ValueError(
                f"CPD columns for {variable!r} must each sum to 1 "
                f"(got sums {column_sums})"
            )
        self.table = np.clip(array, 0.0, None)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_marginal(cls, variable: str, probabilities: Sequence[float]) -> "TabularCPD":
        """Root-node CPD from a marginal distribution."""
        probs = np.asarray(probabilities, dtype=float)
        return cls(variable, probs.size, probs.reshape(-1, 1))

    # ------------------------------------------------------------------ #
    def to_factor(self) -> DiscreteFactor:
        """Convert the CPD to a factor over (variable, *parents)."""
        variables = [self.variable] + self.parents
        cards = {self.variable: self.cardinality, **self.parent_cardinalities}
        shape = tuple(cards[v] for v in variables)
        parent_shape = tuple(self.parent_cardinalities[p] for p in self.parents)
        values = self.table.reshape((self.cardinality, *parent_shape)) if self.parents else self.table.reshape(
            (self.cardinality,)
        )
        return DiscreteFactor(variables, cards, values.reshape(shape))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TabularCPD({self.variable!r} | {self.parents})"
