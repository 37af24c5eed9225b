"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs, split_rng


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).random(5)
        b = as_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        rng = as_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSplitAndSpawn:
    def test_split_count(self):
        children = split_rng(as_rng(0), 4)
        assert len(children) == 4

    def test_split_children_are_independent_streams(self):
        children = split_rng(as_rng(0), 2)
        a = children[0].random(10)
        b = children[1].random(10)
        assert not np.array_equal(a, b)

    def test_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_rng(as_rng(0), 0)

    def test_spawn_reproducible(self):
        a = [r.random(3) for r in spawn_rngs(5, 3)]
        b = [r.random(3) for r in spawn_rngs(5, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_spawn_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, 0)

    def test_spawn_from_generator(self):
        rngs = spawn_rngs(np.random.default_rng(3), 2)
        assert len(rngs) == 2

