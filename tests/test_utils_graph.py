"""Tests for the in-house DAG type, with networkx as the oracle.

``repro.utils.graph.DiGraph`` replaced ``networkx.DiGraph`` in jobs and
Bayesian networks.  Node, neighbour and topological orders feed factor
products, ancestral sampling and scheduling, so they must equal networkx's
for the same insertion history, not merely be valid orders.  networkx is a
test dependency only: the last test checks the package never loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bayes.network import DiscreteBayesianNetwork
from repro.core.profiler import BayesianProfiler
from repro.dag.job import Job
from repro.utils.graph import DiGraph
from repro.utils.rng import make_rng
from repro.workloads.mixtures import default_applications

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def histories(draw):
    """1-12 named nodes in a random order, then candidate edges between them.

    Random index pairs include self-loops, repeats and edges that close a
    cycle; the explicit examples below make sure each kind occurs.
    """
    nodes = draw(
        st.lists(st.text("abcdefgh", min_size=1, max_size=2), min_size=1, max_size=12, unique=True)
    )
    index = st.integers(0, len(nodes) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=40))
    return nodes, [(nodes[parent], nodes[child]) for parent, child in pairs]


def structure(graph):
    """Everything observable about a graph, as comparable lists."""
    if isinstance(graph, DiGraph):
        nodes = graph.nodes()
        return (
            nodes,
            graph.edges(),
            [list(graph.predecessors(n)) for n in nodes],
            [list(graph.successors(n)) for n in nodes],
        )
    nodes = list(graph.nodes)
    return (
        nodes,
        list(graph.edges),
        [list(graph.predecessors(n)) for n in nodes],
        [list(graph.successors(n)) for n in nodes],
    )


@settings(max_examples=300, deadline=None)
@given(histories())
@example(  # cycle-closing edges, a self-loop, a repeat and a shortcut that closes no cycle
    (["c", "a", "b"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("a", "b"), ("a", "c")])
)
@example((["x"], [("x", "x")]))
def test_digraph_matches_networkx(history):
    nodes, candidates = history
    graph, oracle = DiGraph(), nx.DiGraph()
    for node in nodes:
        graph.add_node(node)
        oracle.add_node(node)
    for parent, child in candidates:
        closes_cycle = nx.has_path(oracle, child, parent)  # True for a self-loop
        before = structure(graph)
        if closes_cycle:
            with pytest.raises(ValueError, match="would create a cycle"):
                graph.add_edge(parent, child)
            assert structure(graph) == before
        else:
            graph.add_edge(parent, child)
            oracle.add_edge(parent, child)
        assert structure(graph) == structure(oracle)
    assert graph.topological_order() == list(nx.topological_sort(oracle))
    for node in nodes:
        assert graph.descendants(node) == nx.descendants(oracle, node)
        assert graph.ancestors(node) == nx.ancestors(oracle, node)
        for other in nodes:
            assert graph.has_path(node, other) == nx.has_path(oracle, node, other)


def _depth_oracle(oracle, node):
    """Longest root-to-node path: ``node`` is the only sink of its ancestor closure."""
    return nx.dag_longest_path_length(oracle.subgraph(nx.ancestors(oracle, node) | {node}))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_application_jobs_match_a_networkx_rebuild(seed, monkeypatch):
    # Rebuild each job's DAG in networkx from the same calls, in the same order.
    added = {}
    add_dependency = Job.add_dependency

    def recording(job, parent_id, child_id):
        add_dependency(job, parent_id, child_id)
        added.setdefault(job.job_id, []).append((parent_id, child_id))

    monkeypatch.setattr(Job, "add_dependency", recording)
    rng = make_rng(seed)
    for name, template in default_applications().items():
        for i in range(5):
            job = template.sample_job(f"{name}-{i}", 0.0, rng)
            oracle = nx.DiGraph()
            oracle.add_nodes_from(job.stages)
            oracle.add_edges_from(added.get(job.job_id, []))
            assert job.topological_order() == list(nx.topological_sort(oracle))
            assert job.edges() == list(oracle.edges)
            for stage_id in job.stages:
                assert job.parents(stage_id) == sorted(oracle.predecessors(stage_id))
                assert job.children(stage_id) == sorted(oracle.successors(stage_id))
                assert job.stage_depth(stage_id) == _depth_oracle(oracle, stage_id)


def test_profiler_networks_match_a_networkx_rebuild(monkeypatch):
    added = {}
    add_edge = DiscreteBayesianNetwork.add_edge

    def recording(network, parent, child):
        add_edge(network, parent, child)
        added.setdefault(id(network), []).append((parent, child))

    monkeypatch.setattr(DiscreteBayesianNetwork, "add_edge", recording)
    applications = default_applications()
    profiler = BayesianProfiler().fit(applications.values(), n_profile_jobs=40, seed=3)
    edge_count = 0
    for name in applications:
        network = profiler.profile_for(name).network
        oracle = nx.DiGraph()
        oracle.add_nodes_from(network.nodes)
        oracle.add_edges_from(added.get(id(network), []))
        edge_count += oracle.number_of_edges()
        assert network.edges == list(oracle.edges)
        assert network.topological_order() == list(nx.topological_sort(oracle))
        for node in network.nodes:
            expected = nx.descendants(oracle, node) | nx.ancestors(oracle, node)
            assert network.correlated_nodes(node) == expected
    assert edge_count > 0  # the fit learned structure to compare


def test_importing_the_package_does_not_load_networkx():
    code = (
        "import sys\n"
        "import repro, repro.api, repro.experiments, repro.store, repro.analysis\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
