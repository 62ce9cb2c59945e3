"""Discrete Bayesian network: a DAG of tabular CPDs."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bayes.cpd import TabularCPD
from repro.bayes.factor import DiscreteFactor
from repro.utils.graph import DiGraph

__all__ = ["DiscreteBayesianNetwork"]


class DiscreteBayesianNetwork:
    """A Bayesian network over named discrete variables.

    The network stores the DAG structure, per-variable cardinalities and state
    labels (e.g. the duration-interval midpoints used by the profiler), and a
    :class:`TabularCPD` for every node.
    """

    def __init__(self) -> None:
        self._graph = DiGraph()
        self._cpds: Dict[str, TabularCPD] = {}
        self._cardinalities: Dict[str, int] = {}
        self._state_labels: Dict[str, List[object]] = {}

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        name: str,
        cardinality: int,
        state_labels: Optional[Sequence[object]] = None,
    ) -> None:
        """Add a variable with the given number of states.

        ``state_labels`` optionally attaches a human-meaningful label to each
        state index (for durations these are interval representative values).
        """
        if name in self._cardinalities:
            raise ValueError(f"node {name!r} already exists")
        if cardinality <= 0:
            raise ValueError(f"cardinality of {name!r} must be positive")
        labels = list(state_labels) if state_labels is not None else list(range(cardinality))
        if len(labels) != cardinality:
            raise ValueError(
                f"{name!r}: got {len(labels)} state labels for cardinality {cardinality}"
            )
        self._graph.add_node(name)
        self._cardinalities[name] = int(cardinality)
        self._state_labels[name] = labels

    def add_edge(self, parent: str, child: str) -> None:
        """Add a dependency edge; rejects self-loops and cycles."""
        for node in (parent, child):
            if node not in self._cardinalities:
                raise ValueError(f"unknown node {node!r}")
        self._graph.add_edge(parent, child)

    @property
    def nodes(self) -> List[str]:
        return self._graph.nodes()

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return self._graph.edges()

    def parents(self, node: str) -> List[str]:
        return sorted(self._graph.predecessors(node))

    def children(self, node: str) -> List[str]:
        return sorted(self._graph.successors(node))

    def cardinality(self, node: str) -> int:
        return self._cardinalities[node]

    def state_labels(self, node: str) -> List[object]:
        return list(self._state_labels[node])

    def topological_order(self) -> List[str]:
        return self._graph.topological_order()

    def descendants(self, node: str) -> Set[str]:
        return self._graph.descendants(node)

    def ancestors(self, node: str) -> Set[str]:
        return self._graph.ancestors(node)

    def has_directed_path(self, source: str, target: str) -> bool:
        """True when a directed path source → … → target exists.

        This implements the paper's ``correlated(u, v)`` predicate (Eq. 1):
        a stage u is considered correlated with v when a direct(ed) path
        connects them in the learned network.
        """
        if source == target:
            return False
        return self._graph.has_path(source, target)

    def correlated_nodes(self, node: str) -> Set[str]:
        """All nodes reachable from ``node`` by a directed path (either way).

        The profiler treats a stage as uncertainty-reducing when it is
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
    def factors(self) -> List[DiscreteFactor]:
        """All CPDs converted to factors (used by inference engines)."""
        self.check_model()
        return [self._cpds[node].to_factor() for node in self.nodes]

    def joint_distribution(self) -> DiscreteFactor:
        """Full joint distribution (only sensible for small networks)."""
        joint = DiscreteFactor.identity()
        for factor in self.factors():
            joint = joint.product(factor)
        return joint.normalize()

    def sample(self, rng, n_samples: int = 1) -> List[Dict[str, int]]:
        """Ancestral sampling of complete assignments."""
        self.check_model()
        order = self.topological_order()
        samples: List[Dict[str, int]] = []
        for _ in range(n_samples):
            assignment: Dict[str, int] = {}
            for node in order:
                cpd = self._cpds[node]
                probs = cpd.column_for(assignment) if cpd.parents else cpd.table[:, 0]
                assignment[node] = int(rng.choice(len(probs), p=probs / probs.sum()))
            samples.append(assignment)
        return samples

    def copy(self) -> "DiscreteBayesianNetwork":
        clone = DiscreteBayesianNetwork()
        for node in self.nodes:
            clone.add_node(node, self._cardinalities[node], self._state_labels[node])
        for parent, child in self.edges:
            clone.add_edge(parent, child)
        for cpd in self._cpds.values():
            clone.set_cpd(cpd)
        return clone

    def __contains__(self, node: str) -> bool:
        return node in self._cardinalities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiscreteBayesianNetwork(nodes={len(self.nodes)}, edges={len(self.edges)})"
        )
