"""A small directed acyclic graph over named nodes, in insertion order.

Jobs (stage DAGs) and the profiler's Bayesian networks both keep their
structure here.  Nodes, and each node's successors and predecessors, iterate
in the order they were added, and :meth:`DiGraph.topological_order` is
networkx's ``topological_sort`` for the same calls, so orders that feed
factor products, ancestral sampling and scheduling stay as they were.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

__all__ = ["DiGraph"]


class DiGraph:
    """Acyclic by construction: :meth:`add_edge` refuses to close a cycle."""

    __slots__ = ("_succ", "_pred")

    def __init__(self) -> None:
        # node -> {neighbour: None}: dicts keep insertion order, sets do not.
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, parent: str, child: str) -> None:
        """Add ``parent -> child`` between existing nodes.

        A repeated edge keeps its place.  An edge that would close a cycle
        (a self-loop included) raises ``ValueError`` and changes nothing:
        the graph is acyclic, so that is exactly when ``child`` already
        reaches ``parent``.
        """
        if self.has_path(child, parent):
            raise ValueError(f"edge {parent!r} -> {child!r} would create a cycle")
        self._succ[parent][child] = None
        self._pred[child][parent] = None

    def nodes(self) -> List[str]:
        return list(self._succ)

    def edges(self) -> List[Tuple[str, str]]:
        return [(parent, child) for parent, children in self._succ.items() for child in children]

    def successors(self, node: str) -> Iterator[str]:
        return iter(self._succ[node])

    def predecessors(self, node: str) -> Iterator[str]:
        return iter(self._pred[node])

    def descendants(self, node: str) -> Set[str]:
        return _reachable(self._succ, node)

    def ancestors(self, node: str) -> Set[str]:
        return _reachable(self._pred, node)

    def has_path(self, source: str, target: str) -> bool:
        """True when a directed path leads from ``source`` to ``target``; a node reaches itself."""
        return source == target or target in _reachable(self._succ, source)

    def topological_order(self) -> List[str]:
        """Kahn's order: parentless nodes in node order, then children as they become free.

        A child is released when its last parent is out, in successor order,
        generation by generation, as ``networkx.topological_sort`` does.
        """
        indegree = {node: len(parents) for node, parents in self._pred.items()}
        order = [node for node, degree in indegree.items() if degree == 0]
        for node in order:  # grows while it is walked: a FIFO queue
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        return order


def _reachable(adjacency: Dict[str, Dict[str, None]], node: str) -> Set[str]:
    """Every node reachable from ``node`` along ``adjacency`` (itself excluded in a DAG)."""
    seen: Set[str] = set()
    stack = [node]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return seen
