"""Connectivity primitives: component labels and in-component vertex pairs.

The sparsification pipeline relies on connectivity in two places:

* Spanner construction must keep every component spanned (a disconnected
  input simply decomposes into independent problems).
* Effective-resistance computations require the two endpoints to be in the
  same component; the exact solvers restrict to components, taking each
  one's subgraph with :func:`repro.graphs.operations.induced_subgraph`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.graphs.graph import Graph

__all__ = ["connected_components", "is_connected", "sample_component_pairs"]


def connected_components(graph: Graph) -> np.ndarray:
    """Component label (0-based, contiguous) for each vertex.

    Components are numbered by the rank of their least vertex: the probe
    pairs :func:`sample_component_pairs` draws, and so every certificate,
    depend on that numbering.  One
    :func:`scipy.sparse.csgraph.connected_components` call on a CSR matrix
    of the edge arrays, made on the first call for ``graph``; the labels
    are cached on ``graph`` and returned read-only, so every later call
    (a certificate's probe draw, then its resistance solves) reads the
    same array.  The matrix data are float64 ones, so parallel edges sum
    to at least one and never cancel to an explicit zero.
    """
    labels = graph._labels_cache
    if labels is not None:
        return labels
    n = graph.num_vertices
    if graph.num_edges == 0:
        labels = np.arange(n, dtype=np.int64)
    else:
        pattern = sp.csr_matrix(
            (np.ones(graph.num_edges), (graph.edge_u, graph.edge_v)), shape=(n, n)
        )
        _, raw = csgraph.connected_components(pattern, directed=False)
        labels = raw.astype(np.int64)
    labels.setflags(write=False)
    graph._labels_cache = labels
    return labels


def is_connected(graph: Graph) -> bool:
    """True if the graph has a single connected component (or n <= 1)."""
    if graph.num_vertices <= 1:
        return True
    labels = connected_components(graph)
    return int(labels.max()) == 0


def sample_component_pairs(
    labels: np.ndarray,
    num_pairs: int,
    rng: "np.random.Generator",
) -> np.ndarray:
    """Sample ``num_pairs`` distinct-vertex pairs that share a component.

    Direct (rejection-free) sampling: a component is chosen with
    probability proportional to its number of unordered vertex pairs, then
    two distinct vertices are drawn from it.  Unlike rejection sampling on
    the full vertex set, this returns exactly ``num_pairs`` pairs whenever
    *any* component has >= 2 vertices (and an empty ``(0, 2)`` array
    otherwise) — graphs with many small components cannot silently shrink
    the probe set.

    Parameters
    ----------
    labels:
        Per-vertex component labels (from :func:`connected_components`).
    num_pairs:
        Pairs to draw (with replacement across draws; a pair can repeat).
    rng:
        NumPy random generator.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_pairs <= 0 or labels.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    counts = np.bincount(labels)
    pair_counts = counts.astype(float) * (counts - 1) / 2.0
    total = pair_counts.sum()
    if total <= 0:
        return np.zeros((0, 2), dtype=np.int64)  # all components are singletons
    # Vertices grouped by component label for O(1) in-component draws.
    order = np.argsort(labels, kind="stable")
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    chosen = rng.choice(counts.size, size=num_pairs, p=pair_counts / total)
    size = counts[chosen]
    first = rng.integers(0, size)
    second = rng.integers(0, size - 1)
    second = np.where(second >= first, second + 1, second)  # distinct within component
    pairs = np.stack(
        [order[starts[chosen] + first], order[starts[chosen] + second]], axis=1
    )
    return pairs.astype(np.int64)

