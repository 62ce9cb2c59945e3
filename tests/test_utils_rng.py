"""Tests for deterministic RNG helpers."""

import numpy as np

from repro.utils.rng import make_rng


class TestMakeRng:
    def test_from_int_seed_is_deterministic(self):
        a = make_rng(123)
        b = make_rng(123)
        assert a.integers(0, 1000, 10).tolist() == b.integers(0, 1000, 10).tolist()

    def test_different_seeds_differ(self):
        a = make_rng(1)
        b = make_rng(2)
        assert a.integers(0, 10**9) != b.integers(0, 10**9)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
