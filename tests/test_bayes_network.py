"""Tests for the Bayesian network container."""

import numpy as np
import pytest

from repro.bayes.cpd import TabularCPD
from repro.bayes.network import DiscreteBayesianNetwork


def build_chain_network():
    """a -> b -> c, binary variables with strongly coupled CPDs."""
    net = DiscreteBayesianNetwork()
    net.add_node("a", 2)
    net.add_node("b", 2)
    net.add_node("c", 2)
    net.add_edge("a", "b")
    net.add_edge("b", "c")
    net.set_cpd(TabularCPD.from_marginal("a", [0.6, 0.4]))
    net.set_cpd(
        TabularCPD("b", 2, np.array([[0.9, 0.2], [0.1, 0.8]]), ["a"], {"a": 2})
    )
    net.set_cpd(
        TabularCPD("c", 2, np.array([[0.7, 0.3], [0.3, 0.7]]), ["b"], {"b": 2})
    )
    return net


class TestStructure:
    def test_duplicate_node_raises(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 2)
        with pytest.raises(ValueError):
            net.add_node("a", 3)

    def test_cycle_rejected(self):
        net = DiscreteBayesianNetwork()
        for name in "abc":
            net.add_node(name, 2)
        net.add_edge("a", "b")
        net.add_edge("b", "c")
        with pytest.raises(ValueError):
            net.add_edge("c", "a")
        assert ("c", "a") not in net.edges

    def test_self_loop_rejected(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 2)
        with pytest.raises(ValueError):
            net.add_edge("a", "a")

    def test_unknown_node_edge_raises(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 2)
        with pytest.raises(ValueError):
            net.add_edge("a", "missing")

    def test_topological_order(self):
        net = build_chain_network()
        order = net.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_directed_path_and_correlated(self):
        net = build_chain_network()
        assert "c" in net.descendants("a")
        assert "a" not in net.descendants("c")
        assert "a" not in net.descendants("a")
        assert net.correlated_nodes("b") == {"a", "c"}


class TestCpdManagement:
    def test_cpd_parent_mismatch_rejected(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 2)
        net.add_node("b", 2)
        net.add_edge("a", "b")
        with pytest.raises(ValueError):
            net.set_cpd(TabularCPD.from_marginal("b", [0.5, 0.5]))

    def test_cpd_cardinality_mismatch_rejected(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 3)
        with pytest.raises(ValueError):
            net.set_cpd(TabularCPD.from_marginal("a", [0.5, 0.5]))

    def test_check_model_requires_all_cpds(self):
        net = DiscreteBayesianNetwork()
        net.add_node("a", 2)
        with pytest.raises(ValueError):
            net.check_model()

    def test_check_model_passes_when_complete(self):
        net = build_chain_network()
        assert net.check_model()


class TestDistributions:
    def test_joint_distribution_normalised(self):
        net = build_chain_network()
        joint = net.joint_distribution()
        assert joint.values.sum() == pytest.approx(1.0)
        assert set(joint.variables) == {"a", "b", "c"}

    def test_joint_marginal_matches_root_cpd(self):
        net = build_chain_network()
        joint = net.joint_distribution()
        assert joint.marginalize(["b", "c"]).values == pytest.approx([0.6, 0.4])
