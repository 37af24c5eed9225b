"""Tests for repro.linalg.cg, pseudoinverse, and eigen."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConvergenceError
from repro.graphs import generators as gen
from repro.linalg import eigen as eigen_module
from repro.linalg.cg import (
    conjugate_gradient,
    deflate_constant,
    laplacian_solve,
)
from repro.linalg.eigen import (
    condition_number,
    extreme_generalized_eigenvalues,
    largest_eigenvalue,
    smallest_nonzero_eigenvalue,
)
from repro.linalg.pseudoinverse import laplacian_pseudoinverse


def _spd_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestConjugateGradient:
    def test_solves_spd_system(self):
        mat = _spd_matrix(30, 0)
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(30)
        result = conjugate_gradient(mat, mat @ x_true, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_zero_rhs(self):
        result = conjugate_gradient(np.eye(5), np.zeros(5))
        assert result.converged
        assert np.allclose(result.x, 0.0)
        assert result.iterations == 0

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            conjugate_gradient(np.eye(4), np.ones(5))

    def test_residual_history_monotone_start_end(self):
        mat = _spd_matrix(20, 2)
        result = conjugate_gradient(mat, np.ones(20), tol=1e-10)
        assert result.residual_history[0] >= result.residual_history[-1]

    def test_work_and_matvec_accounting(self):
        mat = sp.csr_matrix(_spd_matrix(15, 3))
        result = conjugate_gradient(mat, np.ones(15), tol=1e-10)
        assert result.matvecs == result.iterations + 1
        assert result.work == pytest.approx(mat.nnz * result.matvecs)

    def test_preconditioner_reduces_iterations(self):
        # An ill-conditioned diagonal system: Jacobi preconditioning solves it instantly.
        diag = np.logspace(0, 6, 40)
        mat = np.diag(diag)
        b = np.ones(40)
        plain = conjugate_gradient(mat, b, tol=1e-10)
        precond = conjugate_gradient(mat, b, tol=1e-10, preconditioner=lambda r: r / diag)
        assert precond.iterations < plain.iterations
        assert precond.precond_applications >= precond.iterations

    def test_max_iterations_respected(self):
        diag = np.logspace(0, 8, 50)
        result = conjugate_gradient(np.diag(diag), np.ones(50), tol=1e-14, max_iterations=3)
        assert result.iterations <= 3
        assert not result.converged

    def test_raise_on_failure(self):
        diag = np.logspace(0, 8, 50)
        with pytest.raises(ConvergenceError):
            conjugate_gradient(
                np.diag(diag), np.ones(50), tol=1e-14, max_iterations=2, raise_on_failure=True
            )

    def test_x0_initial_guess_used(self):
        mat = _spd_matrix(10, 4)
        x_true = np.arange(10.0)
        result = conjugate_gradient(mat, mat @ x_true, x0=x_true, tol=1e-10)
        assert result.iterations == 0
        assert result.converged


class TestLaplacianSolve:
    def test_solves_connected_laplacian(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rng = np.random.default_rng(0)
        b = deflate_constant(rng.standard_normal(small_er_graph.num_vertices))
        result = laplacian_solve(lap, b, tol=1e-10)
        assert result.converged
        assert np.linalg.norm(lap @ result.x - b) < 1e-6 * np.linalg.norm(b)

    def test_solution_is_mean_zero(self, small_er_graph):
        lap = small_er_graph.laplacian()
        b = deflate_constant(np.arange(small_er_graph.num_vertices, dtype=float))
        result = laplacian_solve(lap, b, tol=1e-10)
        assert abs(result.x.mean()) < 1e-9

    def test_handles_unprojected_rhs(self, grid_graph_8x8):
        lap = grid_graph_8x8.laplacian()
        b = np.zeros(grid_graph_8x8.num_vertices)
        b[0], b[-1] = 1.0, -1.0
        b += 5.0  # constant shift is projected away
        result = laplacian_solve(lap, b, tol=1e-10)
        assert result.converged

    def test_deflate_constant(self):
        assert abs(deflate_constant(np.array([1.0, 2.0, 3.0])).mean()) < 1e-15


class TestPseudoinverse:
    def test_pinv_matches_numpy(self, triangle_graph):
        lap = triangle_graph.laplacian().toarray()
        ours = laplacian_pseudoinverse(lap)
        theirs = np.linalg.pinv(lap)
        assert np.allclose(ours, theirs, atol=1e-8)

    def test_pinv_annihilates_constants(self, small_er_graph):
        pinv = laplacian_pseudoinverse(small_er_graph.laplacian())
        ones = np.ones(small_er_graph.num_vertices)
        assert np.allclose(pinv @ ones, 0.0, atol=1e-8)

    def test_pinv_is_inverse_on_range(self, small_er_graph):
        lap = small_er_graph.laplacian().toarray()
        pinv = laplacian_pseudoinverse(lap)
        n = lap.shape[0]
        projector = np.eye(n) - np.ones((n, n)) / n
        assert np.allclose(lap @ pinv, projector, atol=1e-7)

    def test_dimension_limit_enforced(self):
        big = sp.identity(10_000, format="csr")
        with pytest.raises(ValueError):
            laplacian_pseudoinverse(big)


class TestEigen:
    def test_identity_pencil(self, small_er_graph):
        lap = small_er_graph.laplacian()
        lo, hi = extreme_generalized_eigenvalues(lap, lap)
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_scaled_pencil(self, small_er_graph):
        lap = small_er_graph.laplacian()
        lo, hi = extreme_generalized_eigenvalues(2.5 * lap, lap)
        assert lo == pytest.approx(2.5, abs=1e-6)
        assert hi == pytest.approx(2.5, abs=1e-6)

    def test_subgraph_is_dominated(self, small_er_graph):
        """Removing edges can only decrease the quadratic form: lambda_max <= 1."""
        keep = np.ones(small_er_graph.num_edges, dtype=bool)
        keep[::4] = False
        sub = small_er_graph.select_edges(keep)
        lo, hi = extreme_generalized_eigenvalues(sub.laplacian(), small_er_graph.laplacian())
        assert hi <= 1.0 + 1e-8
        assert lo >= -1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            extreme_generalized_eigenvalues(np.eye(3), np.eye(4))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            extreme_generalized_eigenvalues(np.eye(3), np.zeros((3, 3)))

    def test_iterative_path_allocates_no_dense_matrix(self):
        # Above the dense limit neither Laplacian is densified: the call's
        # peak stays below one n x n float64 matrix.
        n = eigen_module._DENSE_LIMIT + 100
        lap = gen.banded_graph(n, 4).laplacian()
        tracemalloc.start()
        try:
            lo, hi = extreme_generalized_eigenvalues(2.0 * lap, lap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    def test_smallest_nonzero_eigenvalue_path(self):
        # Algebraic connectivity of P_3 is 1 (eigenvalues 0, 1, 3).
        g = gen.path_graph(3)
        assert smallest_nonzero_eigenvalue(g.laplacian()) == pytest.approx(1.0, abs=1e-8)

    def test_largest_eigenvalue_complete_graph(self):
        # K_n Laplacian eigenvalues: 0 and n (multiplicity n-1).
        g = gen.complete_graph(6)
        assert largest_eigenvalue(g.laplacian()) == pytest.approx(6.0, abs=1e-8)

    def test_condition_number_complete_graph(self):
        g = gen.complete_graph(5)
        # All nonzero eigenvalues equal n, so the condition number is 1.
        assert condition_number(g.laplacian()) == pytest.approx(1.0, abs=1e-8)

    def test_iterative_path_reasonable(self):
        """The projected estimate for large pencils brackets the true range."""
        import repro.linalg.eigen as eig_mod

        g = gen.erdos_renyi_graph(80, 0.2, seed=3, ensure_connected=True)
        keep = np.ones(g.num_edges, dtype=bool)
        keep[::3] = False
        h = g.select_edges(keep)
        exact_lo, exact_hi = extreme_generalized_eigenvalues(h.laplacian(), g.laplacian())
        est_lo, est_hi = eig_mod._extreme_eigs_iterative(h.laplacian(), g.laplacian(), 1e-9)
        # The subspace estimate is inner (less extreme) but should be close.
        assert exact_lo - 1e-6 <= est_lo <= exact_hi + 1e-6
        assert exact_lo - 1e-6 <= est_hi <= exact_hi + 1e-6
        assert est_hi >= 0.9 * exact_hi - 0.1
