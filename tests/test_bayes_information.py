"""Tests for entropy and mutual-information calculations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.cpd import TabularCPD
from repro.bayes.factor import DiscreteFactor
from repro.bayes.information import (
    binary_entropy,
    conditional_mutual_information,
    entropy_of_distribution,
    mutual_information,
)
from repro.bayes.network import DiscreteBayesianNetwork


class TestEntropy:
    def test_uniform_entropy_is_log2_n(self):
        assert entropy_of_distribution([0.25] * 4) == pytest.approx(2.0)

    def test_point_mass_entropy_zero(self):
        assert entropy_of_distribution([1.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_unnormalised_input_is_normalised(self):
        assert entropy_of_distribution([1.0, 1.0]) == pytest.approx(1.0)

    def test_empty_distribution(self):
        assert entropy_of_distribution([]) == 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            entropy_of_distribution([-0.1, 1.1])

    def test_binary_entropy_extremes(self):
        assert binary_entropy(0.0) == pytest.approx(0.0)
        assert binary_entropy(1.0) == pytest.approx(0.0)
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_binary_entropy_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20))
    @settings(max_examples=80)
    def test_entropy_bounded_by_log_cardinality(self, weights):
        value = entropy_of_distribution(weights)
        assert -1e-9 <= value <= np.log2(len(weights)) + 1e-9


class TestMutualInformation:
    def make_joint(self, values):
        return DiscreteFactor(["x", "y"], {"x": 2, "y": 2}, np.asarray(values, dtype=float))

    def test_independent_variables_zero_mi(self):
        joint = self.make_joint([[0.25, 0.25], [0.25, 0.25]])
        assert mutual_information(joint, ["x"], ["y"]) == pytest.approx(0.0, abs=1e-9)

    def test_perfectly_dependent_variables_one_bit(self):
        joint = self.make_joint([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint, ["x"], ["y"]) == pytest.approx(1.0)

    def test_overlapping_groups_raise(self):
        joint = self.make_joint([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            mutual_information(joint, ["x"], ["x"])

    def test_missing_variable_raises(self):
        joint = self.make_joint([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            mutual_information(joint, ["x"], ["z"])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=80)
    def test_mi_non_negative_and_bounded(self, weights):
        values = np.asarray(weights).reshape(2, 2)
        joint = self.make_joint(values)
        mi = mutual_information(joint, ["x"], ["y"])
        h_x = entropy_of_distribution(joint.marginalize(["y"]).normalize().values)
        h_y = entropy_of_distribution(joint.marginalize(["x"]).normalize().values)
        assert mi >= 0.0
        assert mi <= min(h_x, h_y) + 1e-6


class TestConditionalMutualInformation:
    def build_network(self):
        """x -> y, x -> z: y and z are dependent only through x."""
        net = DiscreteBayesianNetwork()
        for name in ("x", "y", "z"):
            net.add_node(name, 2)
        net.add_edge("x", "y")
        net.add_edge("x", "z")
        net.set_cpd(TabularCPD.from_marginal("x", [0.5, 0.5]))
        noisy_copy = np.array([[0.9, 0.1], [0.1, 0.9]])
        net.set_cpd(TabularCPD("y", 2, noisy_copy, ["x"], {"x": 2}))
        net.set_cpd(TabularCPD("z", 2, noisy_copy, ["x"], {"x": 2}))
        return net

    def test_source_informative_about_targets(self):
        net = self.build_network()
        mi = conditional_mutual_information(net, ["y", "z"], "x")
        assert mi > 0.5

    def test_conditioning_on_source_parent_reduces_mi(self):
        net = self.build_network()
        # Once x is known, y carries almost no extra information about z.
        mi_given_x = conditional_mutual_information(net, ["z"], "y", evidence={"x": 1})
        mi_without = conditional_mutual_information(net, ["z"], "y")
        assert mi_given_x < mi_without

    def test_source_in_evidence_returns_zero(self):
        net = self.build_network()
        assert conditional_mutual_information(net, ["y"], "x", evidence={"x": 0}) == 0.0

    def test_no_remaining_targets_returns_zero(self):
        net = self.build_network()
        assert conditional_mutual_information(net, ["x"], "x") == 0.0
        assert conditional_mutual_information(net, ["y"], "x", evidence={"y": 1}) == 0.0
