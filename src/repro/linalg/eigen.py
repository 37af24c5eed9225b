"""Extreme (generalised) eigenvalue estimation.

The central measurement in every experiment is the spectral approximation
factor between a graph ``G`` and its sparsifier ``H``:

    alpha = min_{x ⟂ null} (x^T L_H x) / (x^T L_G x),
    beta  = max_{x ⟂ null} (x^T L_H x) / (x^T L_G x),

so that ``alpha * G ⪯ H ⪯ beta * G``.  These are the extreme generalised
eigenvalues of the pencil ``(L_H, L_G)`` restricted to the range of
``L_G``.  We compute them

* exactly via a dense eigendecomposition for small graphs (reference), or
* iteratively via the pseudoinverse-free projected pencil when the dense
  path is too large.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "extreme_generalized_eigenvalues",
    "smallest_nonzero_eigenvalue",
    "largest_eigenvalue",
]

MatrixLike = Union[sp.spmatrix, np.ndarray]

_DENSE_LIMIT = 1500


def _dense(matrix: MatrixLike) -> np.ndarray:
    if sp.issparse(matrix):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


def extreme_generalized_eigenvalues(
    numerator: MatrixLike,
    denominator: MatrixLike,
    null_space_tol: float = 1e-9,
) -> Tuple[float, float]:
    """Extreme finite generalised eigenvalues of ``(numerator, denominator)``.

    Both matrices must be symmetric PSD with (at least) the same null space
    as the denominator; eigenvalue directions in the null space of the
    denominator are excluded.  Returns ``(lambda_min, lambda_max)`` over
    the range of the denominator.

    For a sparsifier check, call with ``numerator = L_H`` and
    ``denominator = L_G``; then ``lambda_min * G ⪯ H ⪯ lambda_max * G``.
    """
    shape, den_shape = np.shape(numerator), np.shape(denominator)
    if shape != den_shape:
        raise ValueError(f"matrix shapes differ: {shape} vs {den_shape}")
    if shape[0] > _DENSE_LIMIT:
        return _extreme_eigs_iterative(numerator, denominator, null_space_tol)
    num = _dense(numerator)
    den = _dense(denominator)
    num = 0.5 * (num + num.T)
    den = 0.5 * (den + den.T)
    # Orthonormal basis of range(den).
    eigenvalues, eigenvectors = np.linalg.eigh(den)
    lam_max = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    mask = eigenvalues > null_space_tol * max(lam_max, 1e-300)
    basis = eigenvectors[:, mask]
    if basis.shape[1] == 0:
        raise ValueError("denominator matrix is (numerically) zero; no range to compare on")
    reduced_num = basis.T @ num @ basis
    reduced_den = basis.T @ den @ basis
    # Symmetrise for numerical hygiene before the generalized solve.
    reduced_num = 0.5 * (reduced_num + reduced_num.T)
    reduced_den = 0.5 * (reduced_den + reduced_den.T)
    gen_eigs = scipy.linalg.eigh(reduced_num, reduced_den, eigvals_only=True)
    return float(gen_eigs[0]), float(gen_eigs[-1])


def _extreme_eigs_iterative(
    numerator: MatrixLike, denominator: MatrixLike, null_space_tol: float
) -> Tuple[float, float]:
    """Iterative fallback for large pencils via LOBPCG on the projected pencil.

    Strategy: factor ``den^{+1/2}`` approximately through a partial
    eigendecomposition is too costly; instead we use the dense path on a
    random Galerkin projection of moderate dimension, which gives tight
    estimates for the extreme eigenvalues of graph pencils in practice.
    The projection dimension grows with log(n) to keep the estimate stable.
    """
    num = numerator.tocsr() if sp.issparse(numerator) else sp.csr_matrix(np.asarray(numerator))
    den = denominator.tocsr() if sp.issparse(denominator) else sp.csr_matrix(np.asarray(denominator))
    n = num.shape[0]
    rng = np.random.default_rng(0)
    k = min(n - 1, max(64, int(8 * np.log2(max(n, 2)))))
    # Krylov-flavoured subspace: random block enriched with powers of the
    # pencil action to capture extreme directions.
    block = rng.standard_normal((n, k))
    block -= block.mean(axis=0, keepdims=True)
    subspace = [block]
    work = block
    for _ in range(2):
        work = num @ work - den @ work
        work -= work.mean(axis=0, keepdims=True)
        norms = np.linalg.norm(work, axis=0)
        norms[norms == 0] = 1.0
        work = work / norms
        subspace.append(work)
    basis, _ = np.linalg.qr(np.hstack(subspace))
    reduced_num = basis.T @ (num @ basis)
    reduced_den = basis.T @ (den @ basis)
    reduced_num = 0.5 * (reduced_num + reduced_num.T)
    reduced_den = 0.5 * (reduced_den + reduced_den.T)
    eigenvalues, eigenvectors = np.linalg.eigh(reduced_den)
    mask = eigenvalues > null_space_tol * max(float(eigenvalues[-1]), 1e-300)
    inner_basis = eigenvectors[:, mask]
    gen_eigs = scipy.linalg.eigh(
        inner_basis.T @ reduced_num @ inner_basis,
        inner_basis.T @ reduced_den @ inner_basis,
        eigvals_only=True,
    )
    return float(gen_eigs[0]), float(gen_eigs[-1])


def smallest_nonzero_eigenvalue(matrix: MatrixLike, null_space_tol: float = 1e-9) -> float:
    """Smallest nonzero eigenvalue (algebraic connectivity for Laplacians)."""
    dense = _dense(matrix)
    dense = 0.5 * (dense + dense.T)
    eigenvalues = np.linalg.eigvalsh(dense)
    lam_max = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    nonzero = eigenvalues[eigenvalues > null_space_tol * max(lam_max, 1e-300)]
    if nonzero.size == 0:
        return 0.0
    return float(nonzero[0])


def largest_eigenvalue(matrix: MatrixLike) -> float:
    """Largest eigenvalue of a symmetric matrix (dense for small, Lanczos for large)."""
    if sp.issparse(matrix) and matrix.shape[0] > _DENSE_LIMIT:
        value = spla.eigsh(matrix, k=1, which="LA", return_eigenvectors=False)
        return float(value[0])
    dense = _dense(matrix)
    dense = 0.5 * (dense + dense.T)
    eigenvalues = np.linalg.eigvalsh(dense)
    return float(eigenvalues[-1]) if eigenvalues.size else 0.0


def condition_number(matrix: MatrixLike, null_space_tol: float = 1e-9) -> float:
    """Finite condition number lambda_max / lambda_min_nonzero of a PSD matrix."""
    small = smallest_nonzero_eigenvalue(matrix, null_space_tol)
    large = largest_eigenvalue(matrix)
    if small <= 0:
        return float("inf")
    return large / small
