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

from repro.graphs.graph import Graph

__all__ = ["connected_components", "is_connected", "sample_component_pairs"]


def connected_components(graph: Graph) -> np.ndarray:
    """Component label (0-based, contiguous) for each vertex.

    Uses a vectorised label-propagation over the edge arrays, which runs in
    O((n + m) * diameter-ish) NumPy passes and avoids per-edge Python work.
    Falls back nicely for edgeless graphs.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0 or n == 0:
        return labels
    u = graph.edge_u
    v = graph.edge_v
    # Pointer-jumping label propagation: repeatedly set both endpoints of each
    # edge to the minimum label, then compress via labels[labels].
    while True:
        edge_min = np.minimum(labels[u], labels[v])
        new_labels = labels.copy()
        np.minimum.at(new_labels, u, edge_min)
        np.minimum.at(new_labels, v, edge_min)
        # Compress chains.
        new_labels = new_labels[new_labels]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


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

