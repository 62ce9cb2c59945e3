"""Tests for tabular CPDs."""

import numpy as np
import pytest

from repro.bayes.cpd import TabularCPD


class TestConstruction:
    def test_root_cpd_from_1d(self):
        cpd = TabularCPD("a", 2, np.array([0.3, 0.7]))
        assert cpd.parents == []
        assert cpd.table.shape == (2, 1)

    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TabularCPD("a", 2, np.array([[0.3], [0.3]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            TabularCPD("a", 2, np.array([[-0.1], [1.1]]))

    @pytest.mark.parametrize(
        "table",
        [[[np.nan], [np.nan]], [[np.nan], [1.0]], [[np.inf], [0.0]], [[0.5, np.nan], [0.5, 0.5]]],
    )
    def test_non_finite_entries_rejected(self, table):
        # NaN used to pass both the sign and the column-sum check.
        columns = len(table[0])
        parents = {"b": columns} if columns > 1 else {}
        with pytest.raises(ValueError, match="non-finite"):
            TabularCPD("a", 2, np.array(table), list(parents), parents)

    def test_shape_must_match_parent_cards(self):
        with pytest.raises(ValueError):
            TabularCPD("a", 2, np.ones((2, 3)) / 2, parents=["b"], parent_cardinalities={"b": 2})

    def test_from_marginal(self):
        cpd = TabularCPD.from_marginal("a", [0.2, 0.8])
        assert cpd.table[:, 0] == pytest.approx([0.2, 0.8])


class TestToFactor:
    def test_factor_values_match_table(self):
        table = np.array([[0.9, 0.2], [0.1, 0.8]])
        cpd = TabularCPD("a", 2, table, parents=["b"], parent_cardinalities={"b": 2})
        factor = cpd.to_factor()
        assert factor.variables == ["a", "b"]
        assert factor.values[0, 0] == pytest.approx(0.9)
        assert factor.values[1, 1] == pytest.approx(0.8)

    def test_root_factor(self):
        cpd = TabularCPD.from_marginal("a", [0.25, 0.75])
        factor = cpd.to_factor()
        assert factor.variables == ["a"]
        assert factor.values == pytest.approx([0.25, 0.75])
