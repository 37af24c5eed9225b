"""The check that a matrix is a graph Laplacian.

A graph's Laplacian, incidence matrix, weighted degrees and quadratic
form are :meth:`Graph.laplacian`, :meth:`Graph.incidence`,
:meth:`Graph.weighted_degrees` and :meth:`Graph.quadratic_form`; from raw
edge arrays (a single edge's ``w * B_e`` included), build
``Graph(n, u, v, w)`` first.  :func:`repro.graphs.conversion.from_laplacian`
turns a Laplacian back into a graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["is_laplacian"]


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

