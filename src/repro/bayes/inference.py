"""Exact inference by variable elimination.

LLMSched's Bayesian networks are small (the paper notes compound LLM
applications rarely exceed ~10 LLM stages), so exact elimination with a
min-degree ordering is both simple and fast enough to run inside the
scheduler's critical path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.bayes.factor import DiscreteFactor
from repro.bayes.network import DiscreteBayesianNetwork

__all__ = ["VariableElimination"]


class VariableElimination:
    """Exact query engine over a :class:`DiscreteBayesianNetwork`."""

    def __init__(self, network: DiscreteBayesianNetwork) -> None:
        network.check_model()
        self._network = network

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        variables: Sequence[str],
        evidence: Optional[Mapping[str, int]] = None,
    ) -> DiscreteFactor:
        """Joint posterior P(variables | evidence), normalised.

        ``variables`` may contain one or many names; the returned factor has
        exactly those variables (minus any that also appear in the evidence,
        which would be deterministic).
        """
        evidence = dict(evidence or {})
        query_vars = [v for v in variables if v not in evidence]
        if not query_vars:
            raise ValueError("all query variables are fixed by evidence")
        unknown = [v for v in query_vars if v not in self._network]
        if unknown:
            raise ValueError(f"unknown query variables: {unknown}")
        unknown_evidence = [v for v in evidence if v not in self._network]
        if unknown_evidence:
            raise ValueError(f"unknown evidence variables: {unknown_evidence}")

        factors = [f.reduce(evidence) for f in self._network.factors()]
        factors = [f for f in factors if f.variables or f.total != 1.0]

        to_eliminate = [
            node
            for node in self._network.nodes
            if node not in query_vars and node not in evidence
        ]
        order = self._elimination_order(to_eliminate, factors)

        for var in order:
            factors = self._eliminate(var, factors)

        result = DiscreteFactor.identity()
        for factor in factors:
            result = result.product(factor)
        # Restrict to exactly the query variables (scalar leftovers are fine).
        extra = [v for v in result.variables if v not in query_vars]
        if extra:
            result = result.marginalize(extra)
        if not result.variables:
            raise RuntimeError("query eliminated all variables; this is a bug")
        # Re-order axes to the requested order for predictable downstream use.
        result = self._reorder(result, query_vars)
        return result.normalize()

    def posterior_marginals(
        self,
        variables: Sequence[str],
        evidence: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, np.ndarray]:
        """Per-variable posterior marginals (computed one query per variable)."""
        marginals: Dict[str, np.ndarray] = {}
        evidence = dict(evidence or {})
        for variable in variables:
            if variable in evidence:
                card = self._network.cardinality(variable)
                point_mass = np.zeros(card)
                point_mass[int(evidence[variable])] = 1.0
                marginals[variable] = point_mass
                continue
            factor = self.query([variable], evidence)
            marginals[variable] = factor.values.copy()
        return marginals

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _eliminate(variable: str, factors: List[DiscreteFactor]) -> List[DiscreteFactor]:
        involved = [f for f in factors if variable in f.variables]
        untouched = [f for f in factors if variable not in f.variables]
        if not involved:
            return untouched
        product = involved[0]
        for factor in involved[1:]:
            product = product.product(factor)
        return untouched + [product.marginalize([variable])]

    @staticmethod
    def _elimination_order(
        variables: Iterable[str], factors: Sequence[DiscreteFactor]
    ) -> List[str]:
        """Greedy min-degree ordering on the factor interaction graph."""
        remaining = list(variables)
        # Adjacency: variables co-occurring in a factor interact.
        neighbors: Dict[str, set] = {v: set() for v in remaining}
        cliques = [set(f.variables) for f in factors]
        order: List[str] = []
        while remaining:
            for var in remaining:
                neighbors[var] = set()
                for clique in cliques:
                    if var in clique:
                        neighbors[var] |= clique - {var}
            best = min(remaining, key=lambda v: (len(neighbors[v]), v))
            order.append(best)
            remaining.remove(best)
            merged = neighbors[best]
            cliques = [c for c in cliques if best not in c]
            cliques.append(set(merged))
        return order

    @staticmethod
    def _reorder(factor: DiscreteFactor, variable_order: Sequence[str]) -> DiscreteFactor:
        desired = [v for v in variable_order if v in factor.variables]
        if desired == factor.variables:
            return factor
        perm = [factor.variables.index(v) for v in desired]
        values = factor.values.transpose(perm)
        cards = {v: factor.cardinalities[v] for v in desired}
        return DiscreteFactor(desired, cards, values)
