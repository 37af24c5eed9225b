"""Weighted undirected multigraph container.

The :class:`Graph` class is the workhorse data structure of the package.
Design goals, in order:

* **Vectorised storage.**  Edges live in three parallel NumPy arrays
  ``(u, v, w)``; every bulk operation (sampling, reweighting, masking,
  Laplacian assembly) is a vectorised array operation, following the
  HPC-Python guidance of avoiding per-edge Python loops on hot paths.
* **Multigraph semantics.**  The sparsification algorithms add a bundle
  spanner ``H`` and sampled edges with modified weights, so parallel edges
  arise naturally.  Spectrally a multigraph is equivalent to the coalesced
  simple graph (weights add), and :meth:`Graph.coalesce` performs that
  reduction explicitly.
* **Immutability.**  Edge arrays are never mutated in place; operations
  return new ``Graph`` objects.  This keeps the iterative algorithms
  (``PARALLELSPARSIFY`` peels edges over many rounds) easy to reason about
  and safe to share across simulated parallel workers.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.utils.validation import check_integer

__all__ = ["Graph"]


def _endpoint_array(values: Optional[Sequence[int]], what: str = "edge endpoints") -> np.ndarray:
    """Endpoint input as a flat int64 array; non-integer and boolean values raise."""
    if values is None:
        return np.empty(0, dtype=np.int64)
    raw = np.asarray(values)
    if raw.dtype.kind == "b":
        raise GraphError(f"{what} must be integers, not booleans")
    if raw.dtype.kind in "iu":
        return raw.astype(np.int64, copy=False).ravel()
    with np.errstate(invalid="ignore"):
        ints = raw.astype(np.int64).ravel()
    if not np.array_equal(ints, raw.ravel()):
        raise GraphError(f"{what} must be integers")
    return ints


def _pair_array(pairs: Sequence[Tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Vertex pairs as a ``(k, 2)`` int64 array, checked like edge endpoints.

    An empty input is zero pairs.  Any other input not shaped ``(k, 2)``,
    and non-integral or boolean endpoints (``0.5``, ``True``; ``2.0`` is
    accepted), raise :class:`~repro.exceptions.GraphError`.
    """
    raw = np.asarray(pairs)
    if raw.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphError(f"pairs must be a sequence of (u, v) tuples, got shape {raw.shape}")
    return _endpoint_array(raw, "pair endpoints").reshape(-1, 2)


class Graph:
    """Weighted undirected multigraph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.  Vertices are integers ``0..n-1``.
    u, v:
        Integer arrays of equal length giving edge endpoints (integral
        floats such as ``2.0`` are accepted; ``0.7`` and booleans are
        rejected).  Self loops are rejected; orientation is normalised so
        ``u < v`` internally.
    w:
        Positive edge weights.  If omitted, all weights are 1.

    Notes
    -----
    The class stores edges exactly as given (up to orientation); parallel
    edges are preserved.  Use :meth:`coalesce` to merge parallel edges by
    summing their weights — the Laplacian is identical either way.
    """

    __slots__ = ("_n", "_u", "_v", "_w", "_adj_cache", "_lap_cache", "_labels_cache")

    def __init__(
        self,
        num_vertices: int,
        u: Optional[Sequence[int]] = None,
        v: Optional[Sequence[int]] = None,
        w: Optional[Sequence[float]] = None,
    ) -> None:
        self._n = check_integer(num_vertices, "num_vertices", minimum=0)
        u_arr = _endpoint_array(u)
        v_arr = _endpoint_array(v)
        if u_arr.shape != v_arr.shape:
            raise GraphError(
                f"edge endpoint arrays must have equal length, got {u_arr.shape} and {v_arr.shape}"
            )
        if w is None:
            w_arr = np.ones(u_arr.shape[0], dtype=np.float64)
        else:
            w_arr = np.asarray(w, dtype=np.float64).ravel()
            if w_arr.shape != u_arr.shape:
                raise GraphError(
                    f"weight array must match edge count {u_arr.shape[0]}, got {w_arr.shape[0]}"
                )
        if u_arr.size:
            if u_arr.min(initial=0) < 0 or v_arr.min(initial=0) < 0:
                raise GraphError("vertex indices must be non-negative")
            if u_arr.max(initial=-1) >= self._n or v_arr.max(initial=-1) >= self._n:
                raise GraphError(
                    f"vertex index out of range for graph with {self._n} vertices"
                )
            if np.any(u_arr == v_arr):
                raise GraphError("self loops are not allowed")
            not_finite = ~np.isfinite(w_arr)
            if np.any(not_finite):
                bad = np.flatnonzero(not_finite)
                raise GraphError(
                    f"edge weights must be finite: {bad.size} NaN/Inf entries "
                    f"(first at edge indices {bad[:8].tolist()}) — reject or "
                    "clean upstream data before constructing a Graph"
                )
            not_positive = w_arr <= 0
            if np.any(not_positive):
                bad = np.flatnonzero(not_positive)
                raise GraphError(
                    f"edge weights must be positive: {bad.size} entries <= 0 "
                    f"(first at edge indices {bad[:8].tolist()})"
                )
        # Normalise orientation so that u < v for every edge.
        lo = np.minimum(u_arr, v_arr)
        hi = np.maximum(u_arr, v_arr)
        self._u = np.ascontiguousarray(lo)
        self._v = np.ascontiguousarray(hi)
        self._w = np.ascontiguousarray(w_arr)
        self._u.setflags(write=False)
        self._v.setflags(write=False)
        self._w.setflags(write=False)
        self._adj_cache: Optional[sp.csr_matrix] = None
        self._lap_cache: Optional[sp.csr_matrix] = None
        # Component labels, filled by repro.graphs.connectivity.connected_components.
        self._labels_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, num_vertices: int) -> "Graph":
        """Graph with ``num_vertices`` vertices and no edges."""
        return cls(num_vertices)

    @classmethod
    def _from_trusted(
        cls, num_vertices: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> "Graph":
        """Validation-free constructor for arrays with known-good invariants.

        Callers must guarantee what ``__init__`` normally enforces: int64
        endpoint arrays already oriented ``u < v`` and in range, float64
        positive finite weights, all three of equal length.  Every edge
        transformation below that merely permutes/slices/concatenates
        already-validated arrays funnels through here — in particular
        :meth:`select_edges`, which the bundle peel loops call once per
        component on an index array into the input, so peeling runs no
        per-round validation pass.
        """
        graph = cls.__new__(cls)
        graph._n = num_vertices
        graph._u = np.ascontiguousarray(u, dtype=np.int64)
        graph._v = np.ascontiguousarray(v, dtype=np.int64)
        graph._w = np.ascontiguousarray(w, dtype=np.float64)
        graph._u.setflags(write=False)
        graph._v.setflags(write=False)
        graph._w.setflags(write=False)
        graph._adj_cache = None
        graph._lap_cache = None
        graph._labels_cache = None
        return graph

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (possibly parallel) edges ``m``."""
        return int(self._u.shape[0])

    @property
    def edge_u(self) -> np.ndarray:
        """Array of lower endpoints (read-only view)."""
        return self._u

    @property
    def edge_v(self) -> np.ndarray:
        """Array of upper endpoints (read-only view)."""
        return self._v

    @property
    def edge_weights(self) -> np.ndarray:
        """Array of edge weights (read-only view)."""
        return self._w

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self._w.sum()) if self.num_edges else 0.0

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges as ``(u, v, w)`` tuples with ``u < v``."""
        for a, b, weight in zip(self._u, self._v, self._w):
            yield int(a), int(b), float(weight)

    def edge_keys(self) -> np.ndarray:
        """Canonical integer key ``u * n + v`` per edge (vectorised identity)."""
        return self._u * np.int64(self._n) + self._v

    def weighted_degrees(self) -> np.ndarray:
        """Weighted vertex degrees: sum of incident edge weights."""
        deg = np.zeros(self._n, dtype=np.float64)
        if self.num_edges:
            np.add.at(deg, self._u, self._w)
            np.add.at(deg, self._v, self._w)
        return deg

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency matrix (CSR, parallel edges summed)."""
        if self._adj_cache is None:
            rows = np.concatenate([self._u, self._v])
            cols = np.concatenate([self._v, self._u])
            data = np.concatenate([self._w, self._w])
            adj = sp.coo_matrix((data, (rows, cols)), shape=(self._n, self._n))
            self._adj_cache = adj.tocsr()
        return self._adj_cache

    def laplacian(self) -> sp.csr_matrix:
        """Graph Laplacian ``L = D - A`` as a CSR matrix."""
        if self._lap_cache is None:
            adj = self.adjacency()
            degree = np.asarray(adj.sum(axis=1)).ravel()
            lap = sp.diags(degree) - adj
            self._lap_cache = sp.csr_matrix(lap)
        return self._lap_cache

    def incidence(self) -> sp.csr_matrix:
        """Signed edge-vertex incidence matrix ``B`` of shape ``(m, n)``.

        Satisfies ``B.T @ diag(w) @ B == laplacian()``.
        """
        m = self.num_edges
        rows = np.repeat(np.arange(m, dtype=np.int64), 2)
        cols = np.empty(2 * m, dtype=np.int64)
        data = np.empty(2 * m, dtype=np.float64)
        cols[0::2] = self._u
        cols[1::2] = self._v
        data[0::2] = 1.0
        data[1::2] = -1.0
        return sp.csr_matrix((data, (rows, cols)), shape=(m, self._n))

    def quadratic_form(self, x: np.ndarray) -> float:
        """Evaluate ``x^T L_G x = sum_e w_e (x_u - x_v)^2`` without forming L."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self._n:
            raise GraphError(f"vector must have length {self._n}, got {x.shape[0]}")
        if not self.num_edges:
            return 0.0
        diff = x[self._u] - x[self._v]
        return float(np.dot(self._w, diff * diff))

    # ------------------------------------------------------------------ #
    # Adjacency-structure helpers
    # ------------------------------------------------------------------ #

    def neighbor_lists(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style neighbour structure including parallel edges.

        Returns
        -------
        indptr : (n+1,) int array
        neighbors : (2m,) int array of neighbour vertex ids
        weights : (2m,) float array of corresponding edge weights
        edge_ids : (2m,) int array mapping each incidence back to its edge index
        """
        m = self.num_edges
        ends = np.concatenate([self._u, self._v])
        other = np.concatenate([self._v, self._u])
        weights = np.concatenate([self._w, self._w])
        edge_ids = np.concatenate(
            [np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64)]
        )
        order = np.argsort(ends, kind="stable")
        ends_sorted = ends[order]
        counts = np.bincount(ends_sorted, minlength=self._n)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, other[order], weights[order], edge_ids[order]

    # ------------------------------------------------------------------ #
    # Edge-level transformations (all return new graphs)
    # ------------------------------------------------------------------ #

    def select_edges(self, mask_or_index: np.ndarray) -> "Graph":
        """Graph keeping only edges selected by a boolean mask or index array.

        The selected arrays inherit this graph's invariants, so the result
        is built through :meth:`_from_trusted` with no re-validation.
        """
        idx = np.asarray(mask_or_index)
        if idx.dtype == bool:
            if idx.shape[0] != self.num_edges:
                raise GraphError(
                    f"edge mask must have length {self.num_edges}, got {idx.shape[0]}"
                )
        return Graph._from_trusted(self._n, self._u[idx], self._v[idx], self._w[idx])

    def with_weights(self, new_weights: np.ndarray) -> "Graph":
        """Graph with the same edges but new weights."""
        return Graph(self._n, self._u, self._v, np.asarray(new_weights, dtype=float))

    def scaled(self, factor: float) -> "Graph":
        """Graph ``factor * G`` (all weights multiplied by ``factor > 0``)."""
        if factor <= 0 or not np.isfinite(factor):
            raise GraphError(f"scale factor must be positive and finite, got {factor}")
        return Graph._from_trusted(self._n, self._u, self._v, self._w * float(factor))

    def coalesce(self) -> "Graph":
        """Merge parallel edges by summing weights; result is a simple graph."""
        if not self.num_edges:
            return Graph(self._n)
        keys = self.edge_keys()
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        w_sorted = self._w[order]
        boundaries = np.concatenate([[True], keys_sorted[1:] != keys_sorted[:-1]])
        group_ids = np.cumsum(boundaries) - 1
        unique_keys = keys_sorted[boundaries]
        summed = np.zeros(unique_keys.shape[0], dtype=np.float64)
        np.add.at(summed, group_ids, w_sorted)
        new_u = unique_keys // self._n
        new_v = unique_keys % self._n
        return Graph._from_trusted(self._n, new_u, new_v, summed)

    def union(self, other: "Graph") -> "Graph":
        """Edge-disjoint union ``G1 + G2`` (multigraph concatenation of edges)."""
        if other.num_vertices != self._n:
            raise GraphError(
                "graphs must share a vertex set: "
                f"{self._n} vs {other.num_vertices} vertices"
            )
        return Graph._from_trusted(
            self._n,
            np.concatenate([self._u, other.edge_u]),
            np.concatenate([self._v, other.edge_v]),
            np.concatenate([self._w, other.edge_weights]),
        )

    def __add__(self, other: "Graph") -> "Graph":
        if not isinstance(other, Graph):
            return NotImplemented
        return self.union(other)

    def __mul__(self, factor: float) -> "Graph":
        if not isinstance(factor, (int, float, np.floating, np.integer)):
            return NotImplemented
        return self.scaled(float(factor))

    __rmul__ = __mul__

    # ------------------------------------------------------------------ #
    # Comparisons and representation
    # ------------------------------------------------------------------ #

    def same_edge_set(self, other: "Graph", tol: float = 1e-12) -> bool:
        """True if both graphs have identical coalesced weighted edge sets."""
        if self._n != other.num_vertices:
            return False
        a = self.coalesce()
        b = other.coalesce()
        if a.num_edges != b.num_edges:
            return False
        keys_a = a.edge_keys()
        keys_b = b.edge_keys()
        order_a = np.argsort(keys_a)
        order_b = np.argsort(keys_b)
        if not np.array_equal(keys_a[order_a], keys_b[order_b]):
            return False
        return bool(
            np.allclose(a.edge_weights[order_a], b.edge_weights[order_b], atol=tol, rtol=0)
        )

    def edge_weight_map(self) -> Dict[Tuple[int, int], float]:
        """Dictionary ``(u, v) -> total weight`` of the coalesced graph."""
        coalesced = self.coalesce()
        return {
            (int(a), int(b)): float(weight)
            for a, b, weight in zip(
                coalesced.edge_u, coalesced.edge_v, coalesced.edge_weights
            )
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self._n}, m={self.num_edges}, total_weight={self.total_weight:.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.same_edge_set(other)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Graph objects are unhashable; use edge_weight_map() for identity")
