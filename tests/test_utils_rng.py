"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import NodeStreams, as_rng, spawn_rngs, split_rng


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
        with pytest.raises(ValueError):
            NodeStreams(1, 0)

    def test_spawn_from_generator(self):
        rngs = spawn_rngs(np.random.default_rng(3), 2)
        assert len(rngs) == 2


class TestNodeStreams:
    """``NodeStreams`` is ``spawn_rngs`` in array form, bit for bit.

    Its 128-bit arithmetic relies on uint64 wraparound and promotion
    rules that differ between NumPy 1.x and 2.x, so this is the check to
    run after a NumPy upgrade (CI also runs it on the oldest supported
    NumPy).
    """

    @staticmethod
    def assert_same_draws(streams, rngs, n):
        picker = np.random.default_rng(n)
        for _ in range(5):
            nodes = picker.permutation(n)[: picker.integers(1, n + 1)]
            assert streams.random(nodes).tolist() == [rngs[v].random() for v in nodes]

    @pytest.mark.parametrize("n", [1, 7, 500])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 2])
    def test_int_seed(self, seed, n):
        self.assert_same_draws(NodeStreams(seed, n), spawn_rngs(seed, n), n)

    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_generator_seed_takes_one_draw(self, n):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        self.assert_same_draws(NodeStreams(ours, n), spawn_rngs(theirs, n), n)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_spawned_seed_sequence_advances_like_spawn(self, n):
        def spawned_sequence():
            seq = np.random.SeedSequence(2**70 + 3, spawn_key=(4, 2**33))
            seq.spawn(5)
            return seq

        ours, theirs = spawned_sequence(), spawned_sequence()
        self.assert_same_draws(NodeStreams(ours, n), spawn_rngs(theirs, n), n)
        assert ours.n_children_spawned == theirs.n_children_spawned == 5 + n
