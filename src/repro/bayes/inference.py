"""Exact inference by variable elimination.

LLMSched's Bayesian networks are small (the paper notes compound LLM
applications rarely exceed ~10 LLM stages), so exact elimination with a
min-degree ordering is both simple and fast enough to run inside the
scheduler's critical path.

A query reads the network's compiled state (see :mod:`repro.bayes.network`),
built at the network's first query and dropped by ``add_node``, ``add_edge``
and ``set_cpd``.  Its read-only CPD arrays are conditioned only where an
evidence variable touches them, its memo supplies the elimination order
(which depends on the factor scopes, not on the evidence states), and the
elimination runs on ``(variables, array)`` pairs.  Only the answer is built
as a checked :class:`DiscreteFactor`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.factor import DiscreteFactor, normalized
from repro.bayes.network import DiscreteBayesianNetwork, Scope

__all__ = ["VariableElimination"]

#: A factor during elimination: its variables and its array.
Table = Tuple[Scope, np.ndarray]


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

        compiled = self._network.compiled()
        cards = compiled.cardinalities
        factors = _conditioned(compiled.tables, evidence)
        to_eliminate = tuple(v for v in cards if v not in query_vars and v not in evidence)
        key = (to_eliminate, tuple(scope for scope, _ in factors))
        order = compiled.elimination_orders.get(key)
        if order is None:
            order = compiled.elimination_orders[key] = self._elimination_order(*key)

        for var in order:
            involved = [f for f in factors if var in f[0]]
            if involved:
                factors = [f for f in factors if var not in f[0]]
                scope, values = _product(involved, cards)
                axis = scope.index(var)
                factors.append((scope[:axis] + scope[axis + 1 :], values.sum(axis=(axis,))))

        scope, values = _product(factors, cards)
        # Re-order axes to the requested order for predictable downstream use.
        if list(scope) != query_vars:
            values = values.transpose([scope.index(v) for v in query_vars])
        return DiscreteFactor(query_vars, cards, normalized(values))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _elimination_order(variables: Iterable[str], scopes: Sequence[Scope]) -> List[str]:
        """Greedy min-degree ordering on the factor interaction graph."""
        remaining = list(variables)
        # Adjacency: variables co-occurring in a factor interact.
        neighbors: Dict[str, set] = {v: set() for v in remaining}
        cliques = [set(scope) for scope in scopes]
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


def _conditioned(tables: Sequence[Table], evidence: Mapping[str, int]) -> List[Table]:
    """The CPD tables reduced to the evidence states.

    Only a table an evidence variable touches is indexed, and copied into
    a C-ordered array; one left as the scalar 1 is dropped.
    """
    factors: List[Table] = []
    for scope, values in tables:
        if evidence.keys().isdisjoint(scope):
            factors.append((scope, values))
            continue
        index: List[object] = []
        remaining: List[str] = []
        for var, card in zip(scope, values.shape, strict=True):
            if var in evidence:
                state = int(evidence[var])
                if not 0 <= state < card:
                    raise ValueError(
                        f"state {state} out of range for {var!r} (cardinality {card})"
                    )
                index.append(state)
            else:
                index.append(slice(None))
                remaining.append(var)
        reduced = np.array(values[tuple(index)])
        if remaining or float(reduced) != 1.0:
            factors.append((tuple(remaining), reduced))
    return factors


def _product(factors: Sequence[Table], cards: Mapping[str, int]) -> Table:
    """Pointwise product of the factors, left to right, over the union of their variables.

    Each step writes ``left * right`` into a new C-ordered array whose axes
    are the left factor's, then the right factor's new ones.
    """
    scope, values = factors[0]
    for other_scope, other in factors[1:]:
        new = tuple(v for v in other_scope if v not in scope)
        joined = scope + new
        present = [v for v in joined if v in other_scope]
        if present != list(other_scope):
            other = other.transpose([other_scope.index(v) for v in present])
        right = other.reshape(tuple(cards[v] if v in other_scope else 1 for v in joined))
        left = values.reshape(values.shape + (1,) * len(new))
        values = np.multiply(left, right, out=np.empty(tuple(cards[v] for v in joined)))
        scope = joined
    return scope, values
