"""Laplacian helpers that no :class:`repro.graphs.Graph` method covers.

A graph's Laplacian, incidence matrix, weighted degrees and quadratic
form are :meth:`Graph.laplacian`, :meth:`Graph.incidence`,
:meth:`Graph.weighted_degrees` and :meth:`Graph.quadratic_form`; from raw
edge arrays, build ``Graph(n, u, v, w)`` first.  This module keeps the
single-edge Laplacian ``B_e`` of the matrix-Chernoff argument and the
check that a matrix is a graph Laplacian
(:func:`repro.graphs.conversion.from_laplacian` turns one into a graph).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

__all__ = ["edge_laplacian", "is_laplacian"]


def edge_laplacian(num_vertices: int, a: int, b: int, weight: float = 1.0) -> sp.csr_matrix:
    """Laplacian ``w * B_e`` of the single edge ``(a, b)``.

    This is the rank-one matrix ``w (e_a - e_b)(e_a - e_b)^T`` used in the
    matrix-Chernoff argument of Theorem 4: zero everywhere except a 2x2
    submatrix.
    """
    if a == b:
        raise GraphError("edge Laplacian of a self loop is undefined")
    rows = np.array([a, b, a, b], dtype=np.int64)
    cols = np.array([a, b, b, a], dtype=np.int64)
    data = np.array([weight, weight, -weight, -weight], dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(num_vertices, num_vertices))


def is_laplacian(matrix: sp.spmatrix | np.ndarray, tol: float = 1e-8) -> bool:
    """Check whether ``matrix`` is a graph Laplacian.

    Requirements: square, symmetric, non-positive off-diagonal entries, and
    zero row sums (within ``tol``).
    """
    if sp.issparse(matrix):
        mat = matrix.tocsr()
        n_rows, n_cols = mat.shape
        if n_rows != n_cols:
            return False
        asym = abs(mat - mat.T)
        if asym.nnz and asym.max() > tol:
            return False
        off = mat - sp.diags(mat.diagonal())
        if off.nnz and off.max() > tol:
            return False
        row_sums = np.asarray(mat.sum(axis=1)).ravel()
    else:
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            return False
        if arr.size and np.max(np.abs(arr - arr.T)) > tol:
            return False
        off = arr - np.diag(np.diag(arr))
        if off.size and off.max(initial=0.0) > tol:
            return False
        row_sums = arr.sum(axis=1)
    return bool(np.all(np.abs(row_sums) <= tol * max(1.0, float(np.max(np.abs(row_sums), initial=0.0)))))

