"""Dense pseudoinverse helpers for exact reference computations.

Exact effective resistances and exact spectral-approximation factors on
small/medium graphs are computed through the Moore--Penrose pseudoinverse
of the Laplacian.  These are reference paths — O(n^3) — used by tests and
by experiments that need ground truth; the scalable paths use CG and
sketching instead.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

__all__ = ["laplacian_pseudoinverse"]

MatrixLike = Union[sp.spmatrix, np.ndarray]

# Above this dimension the dense pseudoinverse becomes needlessly slow and
# memory hungry; callers get a clear error instead of a silent stall.
_MAX_DENSE_DIM = 6000


def _to_dense(matrix: MatrixLike) -> np.ndarray:
    if sp.issparse(matrix):
        n = matrix.shape[0]
        if n > _MAX_DENSE_DIM:
            raise ValueError(
                f"matrix dimension {n} too large for dense pseudoinverse "
                f"(limit {_MAX_DENSE_DIM}); use the CG-based paths instead"
            )
        return matrix.toarray()
    arr = np.asarray(matrix, dtype=float)
    if arr.shape[0] > _MAX_DENSE_DIM:
        raise ValueError(
            f"matrix dimension {arr.shape[0]} too large for dense pseudoinverse"
        )
    return arr


def laplacian_pseudoinverse(laplacian: MatrixLike, rcond: float = 1e-10) -> np.ndarray:
    """Moore--Penrose pseudoinverse ``L^+`` of a Laplacian (dense).

    Uses the symmetric eigendecomposition, zeroing eigenvalues below
    ``rcond * lambda_max``.  For a connected graph exactly one eigenvalue
    (the constant mode) is dropped.
    """
    dense = _to_dense(laplacian)
    dense = 0.5 * (dense + dense.T)
    eigenvalues, eigenvectors = np.linalg.eigh(dense)
    if eigenvalues.size == 0:
        return dense
    cutoff = rcond * max(float(eigenvalues[-1]), 1e-300)
    inv = np.where(eigenvalues > cutoff, 1.0 / np.where(eigenvalues > cutoff, eigenvalues, 1.0), 0.0)
    return (eigenvectors * inv) @ eigenvectors.T

