"""Tests for discrete factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.factor import DiscreteFactor


def make_factor(variables, cards, values):
    return DiscreteFactor(variables, cards, np.asarray(values, dtype=float))


class TestConstruction:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_factor(["a"], {"a": 3}, [0.5, 0.5])

    def test_negative_values_raise(self):
        with pytest.raises(ValueError):
            make_factor(["a"], {"a": 2}, [-0.5, 1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_factor(["a"], {"a": 2}, [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            DiscreteFactor([], {}, np.asarray(bad))

    def test_duplicate_variables_raise(self):
        with pytest.raises(ValueError):
            DiscreteFactor(["a", "a"], {"a": 2}, np.ones((2, 2)))

    def test_zero_cardinality_raises(self):
        with pytest.raises(ValueError):
            DiscreteFactor(["a"], {"a": 0}, np.ones((0,)))

    def test_identity(self):
        identity = DiscreteFactor.identity()
        assert identity.variables == []
        assert identity.values.sum() == pytest.approx(1.0)


class TestProduct:
    def test_product_with_identity(self):
        factor = make_factor(["a"], {"a": 2}, [0.3, 0.7])
        result = factor.product(DiscreteFactor.identity())
        assert result.variables == ["a"]
        assert np.allclose(result.values, [0.3, 0.7])

    def test_product_disjoint_is_outer_product(self):
        fa = make_factor(["a"], {"a": 2}, [0.3, 0.7])
        fb = make_factor(["b"], {"b": 2}, [0.4, 0.6])
        result = fa.product(fb)
        assert result.variables == ["a", "b"]
        assert result.values == pytest.approx(np.outer([0.3, 0.7], [0.4, 0.6]))

    def test_product_shared_variable(self):
        fa = make_factor(["a", "b"], {"a": 2, "b": 2}, [[1.0, 2.0], [3.0, 4.0]])
        fb = make_factor(["b"], {"b": 2}, [10.0, 100.0])
        result = fa.product(fb)
        assert result.variables == ["a", "b"]
        assert result.values == pytest.approx(np.array([[10.0, 200.0], [30.0, 400.0]]))

    def test_product_axis_order_independent(self):
        fa = make_factor(["a", "b"], {"a": 2, "b": 3}, np.arange(6).reshape(2, 3) + 1.0)
        fb = make_factor(["b", "a"], {"b": 3, "a": 2}, np.arange(6).reshape(3, 2) + 1.0)
        result = fa.product(fb)
        assert result.variables == ["a", "b"]
        assert result.values == pytest.approx(fa.values * fb.values.T)

    def test_cardinality_mismatch_raises(self):
        fa = make_factor(["a"], {"a": 2}, [0.5, 0.5])
        fb = make_factor(["a"], {"a": 3}, [0.2, 0.3, 0.5])
        with pytest.raises(ValueError):
            fa.product(fb)


class TestMarginalizeReduce:
    def test_marginalize_sums_out(self):
        factor = make_factor(["a", "b"], {"a": 2, "b": 2}, [[0.1, 0.2], [0.3, 0.4]])
        result = factor.marginalize(["b"])
        assert result.variables == ["a"]
        assert np.allclose(result.values, [0.3, 0.7])

    def test_marginalize_unknown_variable_raises(self):
        factor = make_factor(["a"], {"a": 2}, [0.5, 0.5])
        with pytest.raises(ValueError):
            factor.marginalize(["b"])

    def test_reduce_conditions(self):
        factor = make_factor(["a", "b"], {"a": 2, "b": 2}, [[0.1, 0.2], [0.3, 0.4]])
        result = factor.reduce({"b": 1})
        assert result.variables == ["a"]
        assert np.allclose(result.values, [0.2, 0.4])

    def test_reduce_ignores_irrelevant_evidence(self):
        factor = make_factor(["a"], {"a": 2}, [0.5, 0.5])
        result = factor.reduce({"z": 0})
        assert result.variables == ["a"]

    def test_reduce_out_of_range_raises(self):
        factor = make_factor(["a"], {"a": 2}, [0.5, 0.5])
        with pytest.raises(ValueError):
            factor.reduce({"a": 5})


class TestNormalize:
    def test_normalize_sums_to_one(self):
        factor = make_factor(["a"], {"a": 3}, [1.0, 2.0, 7.0])
        result = factor.normalize()
        assert result.values.sum() == pytest.approx(1.0)
        assert result.values[2] == pytest.approx(0.7)

    def test_normalize_zero_factor_returns_uniform(self):
        factor = make_factor(["a"], {"a": 4}, [0.0, 0.0, 0.0, 0.0])
        result = factor.normalize()
        assert np.allclose(result.values, 0.25)


@st.composite
def random_factor(draw):
    n_vars = draw(st.integers(min_value=1, max_value=3))
    names = [f"v{i}" for i in range(n_vars)]
    cards = {name: draw(st.integers(min_value=1, max_value=3)) for name in names}
    shape = tuple(cards[n] for n in names)
    size = int(np.prod(shape))
    values = draw(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=size, max_size=size)
    )
    return DiscreteFactor(names, cards, np.asarray(values).reshape(shape))


class TestFactorProperties:
    @given(random_factor(), random_factor())
    @settings(max_examples=50, deadline=None)
    def test_product_total_is_consistent(self, fa, fb):
        # Renaming fb's variables makes the two factors disjoint, so the
        # product's total must equal the product of totals.
        renamed = DiscreteFactor(
            [f"w{i}" for i in range(len(fb.variables))],
            {f"w{i}": fb.cardinalities[v] for i, v in enumerate(fb.variables)},
            fb.values,
        )
        product = fa.product(renamed)
        assert product.values.sum() == pytest.approx(
            fa.values.sum() * renamed.values.sum(), rel=1e-6, abs=1e-9
        )

    @given(random_factor())
    @settings(max_examples=50, deadline=None)
    def test_marginalize_preserves_total(self, factor):
        result = factor.marginalize(factor.variables[:1])
        assert result.values.sum() == pytest.approx(factor.values.sum(), rel=1e-9, abs=1e-9)

    @given(random_factor())
    @settings(max_examples=50, deadline=None)
    def test_normalize_idempotent(self, factor):
        once = factor.normalize()
        twice = once.normalize()
        assert np.allclose(once.values, twice.values)
