"""Discrete Bayesian network: a DAG of tabular CPDs.

Queries read a network's compiled state (:class:`CompiledNetwork`), built
at the first :meth:`DiscreteBayesianNetwork.compiled` call after a change:

* each CPD as a :class:`~repro.bayes.factor.DiscreteFactor`, checked once,
  whose array is read-only (:meth:`~DiscreteBayesianNetwork.factors` returns
  these factors);
* the topological order and, per variable, its CPD columns, which the
  profiler's forward pass mixes;
* a memo of the elimination orders variable elimination has used.

``add_node``, ``add_edge`` and ``set_cpd`` drop the compiled state, so the
next query sees the edited network.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bayes.cpd import TabularCPD
from repro.bayes.factor import DiscreteFactor
from repro.utils.graph import DiGraph

__all__ = ["CompiledNetwork", "DiscreteBayesianNetwork"]

#: Variables of a factor, in the order of its array's axes.
Scope = Tuple[str, ...]


class CompiledNetwork:
    """What queries read from a network; see the module docstring."""

    __slots__ = ("factors", "tables", "cardinalities", "order", "columns", "elimination_orders")

    def __init__(self, network: "DiscreteBayesianNetwork") -> None:
        network.check_model()
        nodes = network.nodes
        self.factors: List[DiscreteFactor] = [network.get_cpd(n).to_factor() for n in nodes]
        for factor in self.factors:
            factor.values.flags.writeable = False
        #: The factors as the (variables, array) pairs variable elimination reads.
        self.tables: List[Tuple[Scope, np.ndarray]] = [
            (tuple(f.variables), f.values) for f in self.factors
        ]
        self.cardinalities: Dict[str, int] = {n: network.cardinality(n) for n in nodes}
        self.order: List[str] = network.topological_order()
        #: variable -> (its parents, last first; its CPD columns, each with the
        #: parents' states that select it, in the same order).  A root has no
        #: parents and one column.
        self.columns: Dict[str, Tuple[Scope, List[Tuple[np.ndarray, Tuple[int, ...]]]]] = {}
        for (node, *parents), values in self.tables:
            table = values.reshape(values.shape[0], -1)
            assignments = itertools.product(*(range(self.cardinalities[p]) for p in parents))
            self.columns[node] = (
                tuple(reversed(parents)),
                [(table[:, i], states[::-1]) for i, states in enumerate(assignments)],
            )
        #: (variables to eliminate, factor scopes) -> min-degree elimination
        #: order; the order depends on the scopes only, not on evidence states.
        self.elimination_orders: Dict[Tuple[Scope, Tuple[Scope, ...]], List[str]] = {}


class DiscreteBayesianNetwork:
    """A Bayesian network over named discrete variables.

    The network stores the DAG structure, per-variable cardinalities and a
    :class:`TabularCPD` for every node.
    """

    def __init__(self) -> None:
        self._graph = DiGraph()
        self._cpds: Dict[str, TabularCPD] = {}
        self._cardinalities: Dict[str, int] = {}
        self._compiled: Optional[CompiledNetwork] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, cardinality: int) -> None:
        """Add a variable with the given number of states."""
        if name in self._cardinalities:
            raise ValueError(f"node {name!r} already exists")
        if cardinality <= 0:
            raise ValueError(f"cardinality of {name!r} must be positive")
        self._graph.add_node(name)
        self._cardinalities[name] = int(cardinality)
        self._compiled = None

    def add_edge(self, parent: str, child: str) -> None:
        """Add a dependency edge; rejects self-loops and cycles."""
        for node in (parent, child):
            if node not in self._cardinalities:
                raise ValueError(f"unknown node {node!r}")
        self._graph.add_edge(parent, child)
        self._compiled = None

    @property
    def nodes(self) -> List[str]:
        return self._graph.nodes()

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return self._graph.edges()

    def parents(self, node: str) -> List[str]:
        return sorted(self._graph.predecessors(node))

    def cardinality(self, node: str) -> int:
        return self._cardinalities[node]

    def topological_order(self) -> List[str]:
        return self._graph.topological_order()

    def descendants(self, node: str) -> Set[str]:
        return self._graph.descendants(node)

    def ancestors(self, node: str) -> Set[str]:
        return self._graph.ancestors(node)

    def correlated_nodes(self, node: str) -> Set[str]:
        """All nodes reachable from ``node`` by a directed path (either way).

        This is the paper's ``correlated(u, v)`` predicate (Eq. 1): a stage
        u is correlated with v when a directed path connects them in the
        learned network.  The profiler treats a stage as uncertainty-reducing when it is
        correlated with at least one other stage; scheduling it informs every
        node it can reach and every node that can reach it.
        """
        return self.descendants(node) | self.ancestors(node)

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def set_cpd(self, cpd: TabularCPD) -> None:
        """Attach a CPD; its parents must match the graph structure exactly."""
        if cpd.variable not in self._cardinalities:
            raise ValueError(f"unknown node {cpd.variable!r}")
        if cpd.cardinality != self._cardinalities[cpd.variable]:
            raise ValueError(
                f"CPD cardinality {cpd.cardinality} does not match node "
                f"{cpd.variable!r} cardinality {self._cardinalities[cpd.variable]}"
            )
        expected_parents = set(self._graph.predecessors(cpd.variable))
        if set(cpd.parents) != expected_parents:
            raise ValueError(
                f"CPD parents {sorted(cpd.parents)} do not match graph parents "
                f"{sorted(expected_parents)} for {cpd.variable!r}"
            )
        for parent in cpd.parents:
            if cpd.parent_cardinalities[parent] != self._cardinalities[parent]:
                raise ValueError(
                    f"CPD parent cardinality mismatch for {parent!r} in {cpd.variable!r}"
                )
        self._cpds[cpd.variable] = cpd
        self._compiled = None

    def get_cpd(self, node: str) -> TabularCPD:
        return self._cpds[node]

    def check_model(self) -> bool:
        """Validate that every node has a CPD consistent with the structure."""
        missing = [n for n in self.nodes if n not in self._cpds]
        if missing:
            raise ValueError(f"nodes without CPDs: {missing}")
        return True

    # ------------------------------------------------------------------ #
    # Distributions
    # ------------------------------------------------------------------ #
    def compiled(self) -> CompiledNetwork:
        """The query state, built at the first call after a change (see the module docstring)."""
        if self._compiled is None:
            self._compiled = CompiledNetwork(self)
        return self._compiled

    def factors(self) -> List[DiscreteFactor]:
        """All CPDs as factors, in node order; their arrays are read-only."""
        return list(self.compiled().factors)

    def joint_distribution(self) -> DiscreteFactor:
        """Full joint distribution (only sensible for small networks)."""
        joint = DiscreteFactor.identity()
        for factor in self.factors():
            joint = joint.product(factor)
        return joint.normalize()

    def __contains__(self, node: str) -> bool:
        return node in self._cardinalities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiscreteBayesianNetwork(nodes={len(self.nodes)}, edges={len(self.edges)})"
        )
