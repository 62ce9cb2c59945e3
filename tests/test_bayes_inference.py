"""Tests for variable-elimination inference."""

import numpy as np
import pytest

from repro.bayes.cpd import TabularCPD
from repro.bayes.inference import VariableElimination
from repro.bayes.network import DiscreteBayesianNetwork


def build_sprinkler_network():
    """Classic rain/sprinkler/grass network with known posteriors."""
    net = DiscreteBayesianNetwork()
    net.add_node("rain", 2)
    net.add_node("sprinkler", 2)
    net.add_node("grass_wet", 2)
    net.add_edge("rain", "sprinkler")
    net.add_edge("rain", "grass_wet")
    net.add_edge("sprinkler", "grass_wet")
    net.set_cpd(TabularCPD.from_marginal("rain", [0.8, 0.2]))
    net.set_cpd(
        TabularCPD("sprinkler", 2, np.array([[0.6, 0.99], [0.4, 0.01]]), ["rain"], {"rain": 2})
    )
    # parents ordered alphabetically by network: ["rain", "sprinkler"]
    # columns: (rain=0, spr=0), (rain=0, spr=1), (rain=1, spr=0), (rain=1, spr=1)
    net.set_cpd(
        TabularCPD(
            "grass_wet",
            2,
            np.array([[1.0, 0.1, 0.2, 0.01], [0.0, 0.9, 0.8, 0.99]]),
            ["rain", "sprinkler"],
            {"rain": 2, "sprinkler": 2},
        )
    )
    return net


def in_order(factor, variables):
    """The factor's values with their axes in the order of ``variables``."""
    return factor.values.transpose([factor.variables.index(v) for v in variables])


def brute_force_posterior(net, query_vars, evidence):
    """Enumerate the full joint to compute reference posteriors."""
    joint = net.joint_distribution()
    reduced = joint.reduce(evidence).normalize()
    others = [v for v in reduced.variables if v not in query_vars]
    return reduced.marginalize(others).normalize()


class TestQueriesAgainstBruteForce:
    @pytest.mark.parametrize(
        "query_vars,evidence",
        [
            (["rain"], {}),
            (["rain"], {"grass_wet": 1}),
            (["sprinkler"], {"grass_wet": 1}),
            (["rain", "sprinkler"], {"grass_wet": 1}),
            (["grass_wet"], {"rain": 1}),
        ],
    )
    def test_matches_enumeration(self, query_vars, evidence):
        net = build_sprinkler_network()
        engine = VariableElimination(net)
        result = engine.query(query_vars, evidence)
        reference = brute_force_posterior(net, query_vars, evidence)
        assert result.values == pytest.approx(in_order(reference, result.variables), abs=1e-9)

    def test_known_sprinkler_posterior(self):
        # P(rain=1 | grass_wet=1) for this parameterisation is ~0.3577.
        net = build_sprinkler_network()
        engine = VariableElimination(net)
        posterior = engine.query(["rain"], {"grass_wet": 1})
        assert posterior.values[1] == pytest.approx(0.3577, abs=0.001)


class TestQueryValidation:
    def test_unknown_variable_raises(self):
        engine = VariableElimination(build_sprinkler_network())
        with pytest.raises(ValueError):
            engine.query(["nope"])

    def test_unknown_evidence_raises(self):
        engine = VariableElimination(build_sprinkler_network())
        with pytest.raises(ValueError):
            engine.query(["rain"], {"nope": 0})

    def test_all_query_vars_in_evidence_raises(self):
        engine = VariableElimination(build_sprinkler_network())
        with pytest.raises(ValueError):
            engine.query(["rain"], {"rain": 1})


class TestLargerNetwork:
    def test_chain_of_five_posterior_consistency(self):
        # a -> b -> c -> d -> e with noisy copies; conditioning on e=1 should
        # raise the posterior of a=1 relative to the prior.
        net = DiscreteBayesianNetwork()
        names = list("abcde")
        for name in names:
            net.add_node(name, 2)
        net.set_cpd(TabularCPD.from_marginal("a", [0.7, 0.3]))
        for parent, child in zip(names[:-1], names[1:], strict=True):
            net.add_edge(parent, child)
            net.set_cpd(
                TabularCPD(child, 2, np.array([[0.85, 0.15], [0.15, 0.85]]), [parent], {parent: 2})
            )
        engine = VariableElimination(net)
        prior = engine.query(["a"]).values[1]
        posterior = engine.query(["a"], {"e": 1}).values[1]
        assert posterior > prior

    def test_joint_query_over_three_variables(self):
        net = build_sprinkler_network()
        engine = VariableElimination(net)
        joint = engine.query(["rain", "sprinkler", "grass_wet"])
        assert joint.values.sum() == pytest.approx(1.0)
        reference = net.joint_distribution()
        assert joint.values == pytest.approx(in_order(reference, joint.variables), abs=1e-9)
