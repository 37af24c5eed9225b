"""Symmetric diagonally dominant (SDD) matrices and the Laplacian reduction.

A symmetric matrix ``A`` is SDD if ``A_ii >= sum_{j != i} |A_ij|`` for all
``i`` (footnote 1 of the paper).  Laplacians are exactly the SDD matrices
with non-positive off-diagonals and zero row sums.  Every SDD system can be
reduced to a Laplacian system on a graph with at most twice the dimension
(the classical Gremban-style double-cover reduction); this module
implements that reduction so the Laplacian solvers of
:mod:`repro.solvers` can serve arbitrary SDD systems, as Theorem 6 requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotSDDError
from repro.graphs.graph import Graph

__all__ = [
    "SDDMatrix",
    "is_sdd",
    "laplacian_of_sdd",
    "recover_sdd_solution",
    "split_sdd",
]


def _as_csr(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    if sp.issparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def is_sdd(matrix: sp.spmatrix | np.ndarray, tol: float = 1e-10) -> bool:
    """Check symmetry and diagonal dominance ``A_ii >= sum_{j!=i} |A_ij| - tol``."""
    mat = _as_csr(matrix)
    n_rows, n_cols = mat.shape
    if n_rows != n_cols:
        return False
    asym = abs(mat - mat.T)
    if asym.nnz and asym.max() > tol:
        return False
    diag = mat.diagonal()
    abs_off = abs(mat - sp.diags(diag))
    row_off = np.asarray(abs_off.sum(axis=1)).ravel()
    scale = np.maximum(1.0, np.abs(diag))
    return bool(np.all(diag >= row_off - tol * scale))


def split_sdd(
    matrix: sp.spmatrix | np.ndarray, tol: float = 1e-12
) -> Tuple[np.ndarray, sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Split an SDD matrix ``M = D - A_neg + A_pos_diag_part`` into components.

    Returns
    -------
    diag : (n,) array
        The diagonal of ``M``.
    neg_off : csr_matrix
        Matrix of magnitudes of *negative* off-diagonal entries
        (so ``M`` contains ``-neg_off`` off the diagonal).
    pos_off : csr_matrix
        Matrix of *positive* off-diagonal entries.
    excess : (n,) array
        The slack ``diag - (neg_off + pos_off) row sums`` — the amount by
        which each row is strictly dominant.
    """
    mat = _as_csr(matrix)
    if not is_sdd(mat):
        raise NotSDDError("matrix is not symmetric diagonally dominant")
    diag = mat.diagonal().astype(float)
    off = (mat - sp.diags(diag)).tocoo()
    neg_mask = off.data < -tol
    pos_mask = off.data > tol
    n = mat.shape[0]
    neg_off = sp.csr_matrix(
        (-off.data[neg_mask], (off.row[neg_mask], off.col[neg_mask])), shape=(n, n)
    )
    pos_off = sp.csr_matrix(
        (off.data[pos_mask], (off.row[pos_mask], off.col[pos_mask])), shape=(n, n)
    )
    row_abs = np.asarray(neg_off.sum(axis=1)).ravel() + np.asarray(pos_off.sum(axis=1)).ravel()
    excess = diag - row_abs
    excess[np.abs(excess) < tol * np.maximum(1.0, np.abs(diag))] = 0.0
    return diag, neg_off, pos_off, np.maximum(excess, 0.0)


def laplacian_of_sdd(matrix: sp.spmatrix | np.ndarray) -> Tuple[sp.csr_matrix, int]:
    """Gremban-style reduction: SDD matrix ``M`` (n x n) → Laplacian ``L`` ((2n+1) x (2n+1)).

    Construction (standard double cover plus a ground vertex):

    * each original vertex ``i`` gets two copies ``i`` and ``i + n``;
    * a negative off-diagonal ``M_ij = -w`` becomes edges ``(i, j)`` and
      ``(i+n, j+n)`` of weight ``w``;
    * a positive off-diagonal ``M_ij = +w`` becomes edges ``(i, j+n)`` and
      ``(i+n, j)`` of weight ``w``;
    * strict diagonal excess ``d_i > 0`` becomes edges ``(i, g)`` and
      ``(i+n, g)`` of weight ``d_i`` to a ground vertex ``g = 2n``.

    With block structure ``L = [[S1, S2, *], [S2, S1, *], [*, *, *]]`` this
    gives ``S1 - S2 = M``, so if ``x`` solves ``M x = b`` then
    ``(x, -x, 0)`` solves ``L y = (b, -b, 0)``;
    :func:`recover_sdd_solution` inverts the embedding.

    Returns the Laplacian (CSR) and the original dimension ``n``.
    """
    diag, neg_off, pos_off, excess = split_sdd(matrix)
    n = diag.shape[0]
    ground = 2 * n
    neg = sp.triu(neg_off, k=1).tocoo()
    pos = sp.triu(pos_off, k=1).tocoo()
    rows = []
    cols = []
    vals = []
    # Negative off-diagonals: same-layer edges.
    rows.extend([neg.row, neg.row + n])
    cols.extend([neg.col, neg.col + n])
    vals.extend([neg.data, neg.data])
    # Positive off-diagonals: cross-layer edges.
    rows.extend([pos.row, pos.row + n])
    cols.extend([pos.col + n, pos.col])
    vals.extend([pos.data, pos.data])
    # Diagonal excess: edges from both copies to the ground vertex.
    excess_idx = np.flatnonzero(excess > 0)
    if excess_idx.size:
        rows.extend([excess_idx, excess_idx + n])
        cols.extend([np.full(excess_idx.shape[0], ground), np.full(excess_idx.shape[0], ground)])
        vals.extend([excess[excess_idx], excess[excess_idx]])
    if rows:
        u = np.concatenate(rows)
        v = np.concatenate(cols)
        w = np.concatenate(vals)
    else:
        u = np.array([], dtype=np.int64)
        v = np.array([], dtype=np.int64)
        w = np.array([], dtype=float)
    graph = Graph(2 * n + 1, u.astype(np.int64), v.astype(np.int64), w)
    return graph.laplacian(), n


def recover_sdd_solution(y: np.ndarray, n: int) -> np.ndarray:
    """Recover the SDD solution from the doubled Laplacian solution.

    If ``y = (y1, y2, y_g)`` solves the reduced system then
    ``x = (y1 - y2)/2`` solves the original SDD system (the embedding maps
    ``x`` to ``(x, -x, 0)`` and the Laplacian null space only shifts all
    entries equally, which cancels in the difference).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] not in (2 * n, 2 * n + 1):
        raise ValueError(
            f"expected doubled solution of length {2 * n} or {2 * n + 1}, got {y.shape[0]}"
        )
    return 0.5 * (y[:n] - y[n:2 * n])


@dataclass
class SDDMatrix:
    """Thin wrapper pairing an SDD matrix with its Laplacian reduction.

    Attributes
    ----------
    matrix:
        The original SDD matrix (CSR).
    laplacian:
        Laplacian of the Gremban double cover.
    original_dim:
        Dimension ``n`` of the original system.
    """

    matrix: sp.csr_matrix
    laplacian: sp.csr_matrix
    original_dim: int

    @classmethod
    def from_matrix(cls, matrix: sp.spmatrix | np.ndarray) -> "SDDMatrix":
        mat = _as_csr(matrix)
        if not is_sdd(mat):
            raise NotSDDError("matrix is not symmetric diagonally dominant")
        lap, n = laplacian_of_sdd(mat)
        return cls(matrix=mat, laplacian=lap, original_dim=n)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def reduce_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """Right-hand side for the doubled Laplacian system."""
        rhs = np.asarray(rhs, dtype=float).ravel()
        if rhs.shape[0] != self.original_dim:
            raise ValueError(
                f"rhs must have length {self.original_dim}, got {rhs.shape[0]}"
            )
        return np.concatenate([rhs, -rhs, [0.0]])

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a doubled-system solution back to the original variables."""
        return recover_sdd_solution(y, self.original_dim)
