"""Tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.validation import (
    check_epsilon,
    check_integer,
    check_positive,
    check_probability,
    check_square,
    check_symmetric,
    check_vector,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises_value_error(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_custom_exception(self):
        with pytest.raises(TypeError):
            require(False, "boom", exc_type=TypeError)


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


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "x") == 0.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            check_positive("abc", "x")


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


class TestMatrixChecks:
    def test_square_ok(self):
        check_square(np.eye(3))

    def test_square_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square(np.ones((2, 3)))

    def test_symmetric_dense(self):
        check_symmetric(np.eye(4))

    def test_symmetric_sparse(self):
        check_symmetric(sp.identity(5, format="csr"))

    def test_symmetric_rejects_asymmetric(self):
        mat = np.zeros((2, 2))
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            check_symmetric(mat)

    def test_vector_check(self):
        out = check_vector([1, 2, 3], 3)
        assert out.dtype == float
        with pytest.raises(ValueError):
            check_vector([1, 2], 3)
        with pytest.raises(ValueError):
            check_vector(np.ones((2, 2)), 4)
