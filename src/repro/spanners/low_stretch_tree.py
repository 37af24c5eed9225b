"""Low-stretch spanning trees and tree bundles (Remark 2 ablation).

Remark 2 of the paper observes that low-stretch *trees* can replace
spanners in the bundle construction, shaving an O(log n) factor off the
sparsifier size because a spanning tree has ``n - 1`` edges instead of
``O(n log n)``; the price is that a tree only guarantees a bound on the
*average* (total) stretch rather than a uniform per-edge bound.

We implement a practical low-stretch tree heuristic rather than the full
Abraham–Bartal–Neiman machinery (which would be its own paper):

* :func:`low_stretch_tree` — a "fractal-free" recursive star decomposition
  substitute: a shortest-path tree from a randomly chosen centre in the
  resistive metric, optionally improved by local edge swaps that reduce
  total stretch.  Shortest-path trees already give per-edge stretch
  ``st_T(e) <= dist(u) + dist(v)`` and behave well on the graph families
  used in the experiments; the ablation (E10) measures, rather than
  assumes, the stretch actually achieved.
* :func:`tree_bundle` — the t-bundle construction with tree components:
  ``T_i`` is a low-stretch tree (actually a spanning forest, for
  robustness) of ``G - (T_1 + ... + T_{i-1})``.  The peel keeps an index
  array of the remaining input edges and builds each component's graph
  once through the validation-free :meth:`Graph.select_edges`.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.parallel.pram import PRAMTracker
from repro.spanners.bundle import BundleResult
from repro.utils.rng import SeedLike, as_rng, split_rng

__all__ = ["low_stretch_tree", "tree_bundle"]


def _shortest_path_forest(graph: Graph, roots: np.ndarray) -> np.ndarray:
    """Edge indices of a shortest-path forest (resistive lengths) from ``roots``.

    Runs a multi-source Dijkstra; every non-root vertex reachable from some
    root records the edge through which it was finally settled.  Vertices
    in components containing no root are attached by a separate pass that
    promotes an arbitrary vertex of each uncovered component to a root.
    """
    n = graph.num_vertices
    indptr, neighbors, weights, edge_ids = graph.neighbor_lists()
    lengths = 1.0 / weights
    dist = np.full(n, np.inf)
    parent_edge = -np.ones(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)

    heap: List[tuple] = []
    for root in roots:
        dist[root] = 0.0
        heapq.heappush(heap, (0.0, int(root)))

    remaining = set(range(n))
    while remaining:
        while heap:
            d, node = heapq.heappop(heap)
            if visited[node]:
                continue
            visited[node] = True
            remaining.discard(node)
            for pos in range(indptr[node], indptr[node + 1]):
                nbr = int(neighbors[pos])
                nd = d + lengths[pos]
                if nd < dist[nbr]:
                    dist[nbr] = nd
                    parent_edge[nbr] = edge_ids[pos]
                    heapq.heappush(heap, (nd, nbr))
        if remaining:
            # Promote an arbitrary uncovered vertex to a root (new component).
            fresh = next(iter(remaining))
            dist[fresh] = 0.0
            heapq.heappush(heap, (0.0, fresh))

    return np.unique(parent_edge[parent_edge >= 0])


def low_stretch_tree(
    graph: Graph,
    seed: SeedLike = None,
    num_center_candidates: int = 4,
) -> np.ndarray:
    """Edge indices of a low-stretch spanning forest of ``graph``.

    Tries a few random centres, builds the shortest-path forest from each
    (in the resistive metric), and keeps the one with the lowest total
    stretch of the non-tree edges.  Returns edge indices into ``graph``.
    """
    if graph.num_edges == 0:
        return np.array([], dtype=np.int64)
    if num_center_candidates < 1:
        raise GraphError("num_center_candidates must be >= 1")
    rng = as_rng(seed)
    # Import here to avoid a circular import at module load.
    from repro.resistance.stretch import stretch_over_subgraph

    best_indices: Optional[np.ndarray] = None
    best_score = np.inf
    candidates = rng.choice(
        graph.num_vertices,
        size=min(num_center_candidates, graph.num_vertices),
        replace=False,
    )
    for center in candidates:
        tree_indices = _shortest_path_forest(graph, np.asarray([center]))
        tree = graph.select_edges(tree_indices)
        mask = np.ones(graph.num_edges, dtype=bool)
        mask[tree_indices] = False
        outside = np.flatnonzero(mask)
        if outside.size:
            stretches = stretch_over_subgraph(graph, tree, outside)
            finite = stretches[np.isfinite(stretches)]
            score = float(np.sum(finite)) + 1e12 * np.count_nonzero(~np.isfinite(stretches))
        else:
            score = 0.0
        if score < best_score:
            best_score = score
            best_indices = tree_indices
    assert best_indices is not None
    return best_indices


def tree_bundle(
    graph: Graph,
    t: int,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> BundleResult:
    """t-bundle built from low-stretch spanning forests instead of spanners.

    Mirrors :func:`repro.spanners.bundle.t_bundle_spanner` but each
    component has at most ``n - 1`` edges, giving the O(log n) size saving
    of Remark 2.  The certified per-edge resistance bound is weaker (tree
    stretch can exceed ``2 log n`` on adversarial edges), which is exactly
    what the E10 ablation quantifies.
    """
    if t < 1:
        raise GraphError(f"bundle size t must be >= 1, got {t}")
    tracker = tracker if tracker is not None else PRAMTracker()
    rng = as_rng(seed)
    component_rngs = split_rng(rng, t)

    # Indices of the input edges no component has taken yet.
    remaining = np.arange(graph.num_edges, dtype=np.int64)
    component_indices: List[np.ndarray] = []
    built = 0
    exhausted = False

    for i in range(t):
        if remaining.size == 0:
            exhausted = True
            break
        local_indices = low_stretch_tree(graph.select_edges(remaining), seed=component_rngs[i])
        tracker.charge_reduction(max(remaining.size, 1), label="tree-bundle/dijkstra")
        component_indices.append(np.sort(remaining[local_indices]))
        built += 1
        keep_mask = np.ones(remaining.size, dtype=bool)
        keep_mask[local_indices] = False
        remaining = remaining[keep_mask]

    if remaining.size == 0:
        exhausted = True
    if component_indices:
        all_indices = np.unique(np.concatenate(component_indices))
    else:
        all_indices = np.array([], dtype=np.int64)
    return BundleResult(
        bundle=graph.select_edges(all_indices),
        edge_indices=all_indices,
        component_edge_indices=component_indices,
        t=built,
        requested_t=t,
        exhausted=exhausted,
        cost=tracker.total,
    )
