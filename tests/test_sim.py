"""Simulation substrate: deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngFactory


class TestRngFactory:
    def test_same_path_same_stream(self):
        rngs = RngFactory(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_order_independence(self):
        a_first = RngFactory(1)
        x1 = a_first.stream("a").random(4)
        _ = a_first.stream("b").random(4)

        b_first = RngFactory(1)
        _ = b_first.stream("b").random(4)
        x2 = b_first.stream("a").random(4)
        assert np.allclose(x1, x2)

    def test_different_seeds_differ(self):
        assert not np.allclose(
            RngFactory(1).fresh("a").random(8), RngFactory(2).fresh("a").random(8)
        )

    def test_different_paths_differ(self):
        rngs = RngFactory(1)
        assert not np.allclose(rngs.fresh("a").random(8), rngs.fresh("b").random(8))

    def test_fresh_replays_stream(self):
        rngs = RngFactory(3)
        first = rngs.fresh("s").random(5)
        again = rngs.fresh("s").random(5)
        assert np.allclose(first, again)

    def test_scoped_child(self):
        rngs = RngFactory(5)
        child = rngs.child("region/R1")
        direct = rngs.fresh("region/R1/arrivals").random(3)
        via_child = child.fresh("arrivals").random(3)
        assert np.allclose(direct, via_child)

    def test_nested_child(self):
        rngs = RngFactory(5)
        nested = rngs.child("a").child("b")
        assert nested.prefix == "a/b"

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("lots of entropy")
