"""Tests for repro.parallel: cost records and the PRAM tracker."""

import pytest

from repro.parallel.metrics import DistributedCost, PRAMCost
from repro.parallel.pram import PRAMTracker


class TestPRAMCost:
    def test_sequential_composition(self):
        a = PRAMCost(work=10, depth=2)
        b = PRAMCost(work=5, depth=3)
        c = a.then(b)
        assert c.work == 15
        assert c.depth == 5

    def test_add_operator_is_sequential(self):
        assert (PRAMCost(1, 1) + PRAMCost(2, 2)).depth == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            PRAMCost(1, 1).work = 5


class TestDistributedCost:
    def test_sequential_composition(self):
        a = DistributedCost(rounds=3, messages=100, max_message_words=4)
        b = DistributedCost(rounds=2, messages=50, max_message_words=8)
        c = a + b
        assert c.rounds == 5
        assert c.messages == 150
        assert c.max_message_words == 8

    def test_default_zero(self):
        zero = DistributedCost()
        assert (zero + zero).rounds == 0


class TestPRAMTracker:
    def test_basic_charging(self):
        tracker = PRAMTracker()
        tracker.charge(work=100, depth=2)
        tracker.charge(work=50, depth=1)
        assert tracker.total.work == 150
        assert tracker.total.depth == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PRAMTracker().charge(work=-1, depth=0)

    def test_parallel_for(self):
        tracker = PRAMTracker()
        tracker.charge_parallel_for(1000, work_per_item=2.0)
        assert tracker.total.work == 2000
        assert tracker.total.depth == 1

    def test_reduction_depth_logarithmic(self):
        tracker = PRAMTracker()
        tracker.charge_reduction(1024)
        assert tracker.total.depth == pytest.approx(10.0)
        assert tracker.total.work == 1024
        # ceil(log2 n) exactly, on both sides of every power of two.
        for k in range(1, 40):
            for n, depth in ((2**k - 1, k), (2**k, k), (2**k + 1, k + 1)):
                single = PRAMTracker()
                single.charge_reduction(n)
                assert single.total.depth == depth

    def test_labelled_breakdown(self):
        tracker = PRAMTracker()
        tracker.charge(work=10, depth=1, label="a")
        tracker.charge(work=5, depth=1, label="a")
        tracker.charge(work=3, depth=1, label="b")
        breakdown = tracker.breakdown()
        assert breakdown["a"].work == 15
        assert breakdown["b"].work == 3
