"""Tests for deterministic RNG helpers."""

import numpy as np

from repro.utils.rng import RngMixin, derive_rng, make_rng


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


class TestDeriveRng:
    def test_child_streams_are_independent_of_key(self):
        parent1 = make_rng(42)
        parent2 = make_rng(42)
        child_a = derive_rng(parent1, "job", 1)
        child_b = derive_rng(parent2, "job", 1)
        assert child_a.integers(0, 10**9, 5).tolist() == child_b.integers(0, 10**9, 5).tolist()

    def test_different_keys_give_different_streams(self):
        parent = make_rng(42)
        child_a = derive_rng(parent, "job", 1)
        child_b = derive_rng(parent, "job", 2)
        assert child_a.integers(0, 10**9, 5).tolist() != child_b.integers(0, 10**9, 5).tolist()


class TestRngMixin:
    class Thing(RngMixin):
        def __init__(self, seed=None):
            self._seed = seed

    def test_lazy_rng_deterministic(self):
        a = self.Thing(5)
        b = self.Thing(5)
        assert a.rng.integers(0, 100, 3).tolist() == b.rng.integers(0, 100, 3).tolist()

    def test_reseed_resets_stream(self):
        thing = self.Thing(5)
        first = thing.rng.integers(0, 100, 3).tolist()
        thing.reseed(5)
        second = thing.rng.integers(0, 100, 3).tolist()
        assert first == second
