"""Tests for repro.linalg.sdd (SDD recognition and the Laplacian reduction)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import NotSDDError
from repro.graphs.laplacian import is_laplacian
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.linalg.sdd import (
    SDDMatrix,
    is_sdd,
    laplacian_of_sdd,
    recover_sdd_solution,
    split_sdd,
)


def _random_sdd(n: int, seed: int, strictly_dominant: bool = True) -> np.ndarray:
    """Random SDD matrix with mixed-sign off-diagonals."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, size=(n, n))
    off = 0.5 * (off + off.T)
    np.fill_diagonal(off, 0.0)
    diag = np.abs(off).sum(axis=1)
    if strictly_dominant:
        diag = diag + rng.uniform(0.1, 1.0, size=n)
    return np.diag(diag) + off


class TestIsSDD:
    def test_laplacian_is_sdd(self, small_er_graph):
        assert is_sdd(small_er_graph.laplacian())

    def test_random_sdd_detected(self):
        assert is_sdd(_random_sdd(20, 0))

    def test_identity_is_sdd(self):
        assert is_sdd(np.eye(4))

    def test_non_dominant_rejected(self):
        mat = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert not is_sdd(mat)

    def test_asymmetric_rejected(self):
        mat = np.array([[2.0, -1.0], [0.0, 2.0]])
        assert not is_sdd(mat)

    def test_rectangular_rejected(self):
        assert not is_sdd(np.ones((2, 3)))

    def test_sparse_input(self):
        assert is_sdd(sp.csr_matrix(_random_sdd(15, 3)))


class TestSplit:
    def test_split_components_reassemble(self):
        mat = _random_sdd(12, 5)
        diag, neg, pos, excess = split_sdd(mat)
        rebuilt = np.diag(diag) - neg.toarray() + pos.toarray()
        assert np.allclose(rebuilt, mat)
        assert np.all(excess >= 0)

    def test_split_rejects_non_sdd(self):
        with pytest.raises(NotSDDError):
            split_sdd(np.array([[1.0, -5.0], [-5.0, 1.0]]))

    def test_laplacian_has_zero_excess(self, small_er_graph):
        _, neg, pos, excess = split_sdd(small_er_graph.laplacian())
        assert pos.nnz == 0
        assert np.allclose(excess, 0.0)


class TestLaplacianReduction:
    def test_reduction_produces_laplacian(self):
        mat = _random_sdd(10, 1)
        lap, n = laplacian_of_sdd(mat)
        assert n == 10
        assert lap.shape == (21, 21)
        assert is_laplacian(lap, tol=1e-8)

    def test_reduction_of_laplacian_input(self, small_er_graph):
        lap, n = laplacian_of_sdd(small_er_graph.laplacian())
        assert is_laplacian(lap, tol=1e-8)
        assert lap.shape == (2 * small_er_graph.num_vertices + 1,) * 2

    def test_solution_recovery_exact(self):
        """Solving the doubled Laplacian system recovers the SDD solution."""
        mat = _random_sdd(15, 7)
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(15)
        b = mat @ x_true
        system = SDDMatrix.from_matrix(mat)
        y = laplacian_pseudoinverse(system.laplacian) @ system.reduce_rhs(b)
        x = recover_sdd_solution(y, system.original_dim)
        assert np.allclose(x, x_true, atol=1e-6)

    def test_recover_length_checked(self):
        with pytest.raises(ValueError):
            recover_sdd_solution(np.ones(5), 3)


class TestSDDMatrixWrapper:
    def test_from_matrix(self):
        mat = _random_sdd(8, 9)
        wrapper = SDDMatrix.from_matrix(mat)
        assert wrapper.shape == (8, 8)
        assert wrapper.original_dim == 8
        assert wrapper.nnz > 0

    def test_from_matrix_rejects_non_sdd(self):
        with pytest.raises(NotSDDError):
            SDDMatrix.from_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_reduce_and_recover_roundtrip(self):
        mat = _random_sdd(10, 11)
        wrapper = SDDMatrix.from_matrix(mat)
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(10)
        b = mat @ x_true
        c = wrapper.reduce_rhs(b)
        y = laplacian_pseudoinverse(wrapper.laplacian) @ c
        assert np.allclose(wrapper.recover(y), x_true, atol=1e-6)

    def test_reduce_rhs_length_checked(self):
        wrapper = SDDMatrix.from_matrix(_random_sdd(5, 0))
        with pytest.raises(ValueError):
            wrapper.reduce_rhs(np.ones(6))
