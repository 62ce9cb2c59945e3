"""Tests for structure and parameter learning."""

import numpy as np
import pytest

from repro.bayes.learning import (
    StructureLearningConfig,
    build_network_from_samples,
    fit_cpds,
    learn_structure_from_correlations,
)
from repro.bayes.network import DiscreteBayesianNetwork
from repro.bayes.inference import VariableElimination


def correlated_duration_samples(n=400, seed=0):
    """Three stages: s0 drives s1; s2 is independent noise."""
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(5.0, 50.0, n)
    s1 = s0 * 1.5 + rng.normal(0, 1.0, n)
    s2 = rng.uniform(5.0, 50.0, n)
    return {"s0": s0, "s1": s1, "s2": s2}


class TestStructureLearning:
    def test_correlated_edge_found_independent_edge_skipped(self):
        samples = correlated_duration_samples()
        edges = learn_structure_from_correlations(samples, ["s0", "s1", "s2"])
        assert ("s0", "s1") in edges
        assert ("s0", "s2") not in edges
        assert ("s1", "s2") not in edges

    def test_direction_follows_variable_order(self):
        samples = correlated_duration_samples()
        edges = learn_structure_from_correlations(samples, ["s1", "s0", "s2"])
        assert ("s1", "s0") in edges
        assert ("s0", "s1") not in edges

    def test_max_parents_cap(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(1, 10, 300)
        samples = {
            "a": base + rng.normal(0, 0.1, 300),
            "b": base + rng.normal(0, 0.1, 300),
            "c": base + rng.normal(0, 0.1, 300),
            "d": base + rng.normal(0, 0.1, 300),
        }
        config = StructureLearningConfig(correlation_threshold=0.3, max_parents=2)
        edges = learn_structure_from_correlations(samples, ["a", "b", "c", "d"], config)
        parents_of_d = [p for p, c in edges if c == "d"]
        assert len(parents_of_d) <= 2

    def test_missing_samples_raise(self):
        with pytest.raises(ValueError):
            learn_structure_from_correlations({"a": [1.0, 2.0]}, ["a", "b"])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StructureLearningConfig(correlation_threshold=1.5)
        with pytest.raises(ValueError):
            StructureLearningConfig(max_parents=-1)


class TestFitCpds:
    def build_net(self):
        net = DiscreteBayesianNetwork()
        net.add_node("x", 2)
        net.add_node("y", 2)
        net.add_edge("x", "y")
        return net

    def test_learned_probabilities_match_frequencies(self):
        net = self.build_net()
        # x=1 in 50% of samples, y copies x 90% of the time.
        rng = np.random.default_rng(3)
        n = 5000
        x = rng.integers(0, 2, n)
        flip = rng.random(n) < 0.1
        y = np.where(flip, 1 - x, x)
        fit_cpds(net, {"x": x, "y": y}, laplace_alpha=0.0)
        cpd_y = net.get_cpd("y")
        assert cpd_y.table[0, 0] == pytest.approx(0.9, abs=0.03)
        assert cpd_y.table[1, 1] == pytest.approx(0.9, abs=0.03)

    def test_laplace_smoothing_avoids_zero_probabilities(self):
        net = self.build_net()
        x = [0, 0, 0, 0]
        y = [0, 0, 0, 0]
        fit_cpds(net, {"x": x, "y": y}, laplace_alpha=1.0)
        cpd_y = net.get_cpd("y")
        assert np.all(cpd_y.table > 0)
        # Unseen parent configuration (x=1) falls back to uniform.
        assert cpd_y.table[0, 1] == pytest.approx(0.5)

    def test_out_of_range_state_rejected(self):
        net = self.build_net()
        with pytest.raises(ValueError):
            fit_cpds(net, {"x": [0, 3], "y": [0, 1]})

    def test_inconsistent_lengths_rejected(self):
        net = self.build_net()
        with pytest.raises(ValueError):
            fit_cpds(net, {"x": [0, 1], "y": [0]})

    def test_missing_variable_rejected(self):
        net = self.build_net()
        with pytest.raises(ValueError):
            fit_cpds(net, {"x": [0, 1]})

    def test_zero_samples_rejected(self):
        net = self.build_net()
        with pytest.raises(ValueError):
            fit_cpds(net, {"x": [], "y": []})


class TestBuildNetworkFromSamples:
    def test_end_to_end_inference_reduces_uncertainty(self):
        continuous = correlated_duration_samples(n=800, seed=7)
        # Discretise into 2 states by the median of each column.
        discrete = {}
        for name, values in continuous.items():
            median = np.median(values)
            discrete[name] = [int(v > median) for v in values]
        net = build_network_from_samples(
            continuous_samples=continuous,
            discrete_samples=discrete,
            cardinalities={"s0": 2, "s1": 2, "s2": 2},
            variable_order=["s0", "s1", "s2"],
        )
        assert ("s0", "s1") in net.edges
        engine = VariableElimination(net)
        prior_s1 = engine.query(["s1"]).values
        posterior_s1 = engine.query(["s1"], {"s0": 1}).values
        # Observing s0 should sharpen the belief about s1 towards state 1.
        assert posterior_s1[1] > prior_s1[1]
