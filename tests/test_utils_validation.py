"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import check_epsilon, check_integer, check_probability


class TestCheckInteger:
    def test_accepts_int(self):
        assert check_integer(5, "x") == 5

    def test_accepts_numpy_int(self):
        assert check_integer(np.int64(7), "x") == 7

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_integer(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_integer(2.5, "x")

    def test_minimum_enforced(self):
        with pytest.raises(ValueError):
            check_integer(1, "x", minimum=2)


class TestCheckProbabilityEpsilon:
    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")

    def test_epsilon_bounds(self):
        assert check_epsilon(0.5) == 0.5
        with pytest.raises(ValueError):
            check_epsilon(0.0)
        with pytest.raises(ValueError):
            check_epsilon(1.5)
