"""Baswana–Sen randomized (2k-1)-spanner construction.

This is the algorithm behind Theorem 1 of the paper (their adaptation of
Baswana & Sen, Random Struct. Algorithms 2007, Theorem 5.4): a spanner of
expected size ``O(k n^{1 + 1/k})`` computable with ``O(k m)`` work in
polylogarithmic parallel time.  With ``k = ceil(log2 n)`` the spanner has
expected ``O(n log n)`` edges and stretch ``2k - 1 <= 2 log2 n``, which is
exactly the "log n-spanner" object the sparsifier needs.

Two important adaptations for this package:

* **Metric.**  The paper's stretch (Section 2) is *resistive*:
  ``st_p(e) = w_e * sum_{e' in p} 1 / w_{e'}``.  A classical spanner with
  multiplicative stretch ``s`` on edge lengths ``l_e = 1 / w_e`` gives
  exactly ``st_H(e) <= s`` in the paper's sense, so the algorithm runs on
  the lengths ``1 / w`` while the output subgraph keeps the original
  weights.
* **Cost accounting.**  The implementation is a sequence of vectorised
  passes over the edge array; each pass charges the PRAM tracker with the
  work/depth of the corresponding CRCW PRAM step (Corollary 2's
  accounting), so benchmarks can report work and depth without a PRAM.

The per-iteration clustering logic follows Baswana–Sen phase 1/phase 2:

1. ``k - 1`` clustering iterations.  Clusters of the current clustering are
   sampled with probability ``n^{-1/k}``; vertices of unsampled clusters
   either join the nearest sampled neighbouring cluster (adding that
   lightest edge) or, if none is adjacent, add one lightest edge per
   neighbouring cluster and leave the clustering.  Edges that become
   "covered" by these additions are discarded from the working edge set.
2. Phase 2 joins every vertex to each cluster of the final clustering that
   remains adjacent to it through one lightest edge.

Every per-vertex decision is a *segmented reduction* over the (vertex,
cluster) groups produced by one stable integer sort of the directed edge
rows — ``np.minimum.reduceat`` / ``np.logical_or.reduceat`` over group
boundaries.  Covered edges are then marked by edge id: each kept group's
verdict is scattered back to its directed rows through the row -> group
map of that same sort, so no step binary-searches a key table, and one
clustering iteration is a small constant number of flat NumPy passes with
no Python loop over vertices.  The pre-vectorization implementation is
preserved in :mod:`repro.spanners._reference` for golden tests and
benchmarking; both select bit-identical edge sets for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.utils.rng import RandomState, SeedLike, as_rng

__all__ = ["SpannerResult", "baswana_sen_spanner"]


@dataclass
class SpannerResult:
    """Output of a spanner construction.

    Attributes
    ----------
    spanner:
        The spanner subgraph (same vertex set, subset of the input edges,
        original weights).
    edge_indices:
        Indices (into the input graph's edge arrays) of the edges chosen.
    stretch_target:
        The stretch ``2k - 1`` the construction aims for.
    k:
        The Baswana–Sen parameter used.
    cost:
        PRAM work/depth charged while building the spanner.  When a shared
        tracker is passed in, this is the *delta* charged by this call
        alone, so per-component costs sum correctly.
    """

    spanner: Graph
    edge_indices: np.ndarray
    stretch_target: float
    k: int
    cost: PRAMCost = field(default_factory=PRAMCost)


def _segmented_argmin(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by integer key; per group, locate the minimum value.

    The radix-style bucketing primitive shared by the shared-memory
    spanner and the columnar CONGEST decide round: a *stable* sort on the
    integer key (NumPy's stable sort on integer dtypes is a radix sort)
    buckets the rows while keeping each bucket in input order, so the
    earliest sorted position achieving the segment minimum is exactly the
    earliest *input row* at the minimum — the tie-break every golden test
    pins down.

    ``keys`` must be non-empty (callers early-out on empty input).

    Returns
    -------
    order : permutation sorting the rows by key (stable)
    starts : segment start offsets into the sorted order, one per group
             (groups appear in ascending key order)
    seg_of : per sorted row, the index of its group
    minima : per group, the minimum value
    best : per group, the *sorted position* of the earliest row achieving
           the minimum (``order[best]`` gives original row indices)
    """
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    starts = np.flatnonzero(np.r_[True, keys_sorted[1:] != keys_sorted[:-1]])
    counts = np.diff(np.append(starts, keys_sorted.size))
    seg_of = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    values_sorted = values[order]
    minima = np.minimum.reduceat(values_sorted, starts)
    positions = np.arange(keys_sorted.size, dtype=np.int64)
    at_min = values_sorted == minima[seg_of]
    best = np.minimum.reduceat(np.where(at_min, positions, keys_sorted.size), starts)
    return order, starts, seg_of, minima, best


def _lightest_per_group(
    group_a: np.ndarray, group_b: np.ndarray, lengths: np.ndarray, payload: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each (a, b) group return the row of minimum length.

    Returns arrays (a, b, min_length, payload_at_min) with one entry per
    distinct (a, b) pair, sorted lexicographically by (a, b), followed by
    the row -> group map (the group index of every input row).  Ties on
    length resolve to the earliest input row, which is the tie-breaking
    order the golden tests pin down.

    Grouping runs through :func:`_segmented_argmin` on the fused integer
    key ``a * span + b``, replacing the previous three-key ``np.lexsort``
    whose float comparison sort dominated the per-iteration cost.
    """
    if group_a.size == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([]), empty, empty
    base_a = np.int64(group_a.min())
    base_b = np.int64(group_b.min())
    span = np.int64(group_b.max()) - base_b + 1
    key = (group_a - base_a) * span + (group_b - base_b)
    order, _, seg_of, _, best = _segmented_argmin(key, lengths)
    sel = order[best]
    group_of = np.empty_like(seg_of)
    group_of[order] = seg_of
    return group_a[sel], group_b[sel], lengths[sel], payload[sel], group_of


def _spanner_select(
    n: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: RandomState,
    tracker: PRAMTracker,
) -> np.ndarray:
    """Core Baswana–Sen edge selection on raw arrays.

    Returns the sorted unique local indices (into ``edge_u``/``edge_v``)
    of the spanner edges.  This is the function the bundle peel loop calls
    directly, so ``t`` rounds never materialise an intermediate ``Graph``.
    """
    # The working arrays are only ever re-bound to fancy-indexed slices,
    # never mutated in place, so the caller's (possibly read-only) arrays
    # are used as-is.
    lengths = 1.0 / weights  # resistive metric
    m = edge_u.shape[0]
    edge_idx = np.arange(m, dtype=np.int64)

    # cluster[v] = centre vertex id, or -1 once v leaves the clustering.
    cluster = np.arange(n, dtype=np.int64)
    sample_probability = float(n) ** (-1.0 / k) if n > 1 else 1.0

    chosen = np.zeros(m, dtype=bool)

    for _iteration in range(k - 1):
        if edge_idx.size == 0:
            break
        # --- sample clusters -------------------------------------------------
        is_center = np.zeros(n, dtype=bool)
        is_center[cluster[cluster >= 0]] = True
        active_centers = np.flatnonzero(is_center)
        sampled_flags = rng.random(active_centers.shape[0]) < sample_probability
        center_sampled = np.zeros(n, dtype=bool)
        center_sampled[active_centers[sampled_flags]] = True
        # PRAM: each cluster flips a coin, each vertex reads its centre's coin.
        tracker.charge_parallel_for(active_centers.shape[0], label="spanner/sample-clusters")
        tracker.charge_parallel_for(n, label="spanner/propagate-sampling")

        in_sampled = np.zeros(n, dtype=bool)
        clustered = cluster >= 0
        in_sampled[clustered] = center_sampled[cluster[clustered]]

        # --- per (vertex, neighbouring cluster) lightest edges --------------
        # Directed view: each remaining edge appears once per endpoint.
        du = np.concatenate([edge_u, edge_v])
        dv = np.concatenate([edge_v, edge_u])
        dlen = np.concatenate([lengths, lengths])
        didx = np.concatenate([edge_idx, edge_idx])
        head_cluster = cluster[dv]
        # Only clustered heads count, and only vertices outside sampled
        # clusters act this iteration.
        valid = (head_cluster >= 0) & ~in_sampled[du]
        du, dlen, didx, head_cluster = (
            du[valid], dlen[valid], didx[valid], head_cluster[valid]
        )
        tracker.charge_parallel_for(2 * edge_idx.size, label="spanner/scan-edges")

        if du.size == 0:
            # Nothing to do; clustering simply persists for sampled clusters.
            cluster = np.where(in_sampled, cluster, -1)
            continue

        grp_v, grp_c, grp_len, grp_edge, grp_of = _lightest_per_group(
            du, head_cluster, dlen, didx
        )
        # PRAM: grouping/minimum per (v, c) pair is a segmented reduction.
        tracker.charge_reduction(du.size, label="spanner/group-min")

        # --- per-vertex decisions (segmented reductions) --------------------
        # grp_* arrays are sorted by (vertex, cluster); one segment per
        # acting vertex.  Case (a) — no adjacent sampled cluster — keeps
        # every segment entry; case (b) keeps the strictly lighter entries
        # plus the lightest sampled one (first on ties, matching argmin
        # over the lexsorted segment).  The removal (vertex, cluster) pairs
        # coincide with the kept entries in both cases.
        new_cluster = np.where(in_sampled, cluster, -1)

        num_entries = grp_v.size
        seg_starts = np.concatenate([[0], np.flatnonzero(grp_v[1:] != grp_v[:-1]) + 1])
        seg_lengths = np.diff(np.append(seg_starts, num_entries))
        seg_of = np.repeat(np.arange(seg_starts.size, dtype=np.int64), seg_lengths)

        entry_sampled = center_sampled[grp_c]
        seg_any_sampled = np.logical_or.reduceat(entry_sampled, seg_starts)
        masked_len = np.where(entry_sampled, grp_len, np.inf)
        seg_best_len = np.minimum.reduceat(masked_len, seg_starts)
        positions = np.arange(num_entries, dtype=np.int64)
        at_best = masked_len == seg_best_len[seg_of]
        seg_best_pos = np.minimum.reduceat(
            np.where(at_best, positions, num_entries), seg_starts
        )

        seg_vertices = grp_v[seg_starts]
        case_b = seg_any_sampled
        new_cluster[seg_vertices[~case_b]] = -1
        new_cluster[seg_vertices[case_b]] = grp_c[seg_best_pos[case_b]]

        keep_entry = (
            ~case_b[seg_of]
            | (grp_len < seg_best_len[seg_of])
            | (positions == seg_best_pos[seg_of])
        )
        # PRAM: decisions are per-vertex constant-depth selections (with a
        # log-depth min over the vertex's adjacent clusters).
        tracker.charge_reduction(num_entries, label="spanner/vertex-decisions")

        chosen[grp_edge[keep_entry]] = True

        # --- remove covered edges -------------------------------------------
        # An edge (x, y) is removed if the pair (x, cluster_old(y)) or
        # (y, cluster_old(x)) was scheduled for removal, or if both endpoints
        # now share a cluster (it is covered inside that cluster).  The
        # removal pairs are exactly the kept (vertex, cluster) groups, and
        # the directed rows carrying a pair are exactly that group's rows
        # (vertices of sampled clusters never act, unclustered heads name
        # no cluster), so scattering each group's verdict back through the
        # row -> group map marks every covered direction of every edge.
        covered = np.zeros(valid.shape[0], dtype=bool)
        covered[valid] = keep_entry[grp_of]
        removed = covered[: edge_idx.size] | covered[edge_idx.size :]
        same_new_cluster = (
            (new_cluster[edge_u] >= 0) & (new_cluster[edge_u] == new_cluster[edge_v])
        )
        keep = ~(removed | same_new_cluster)
        tracker.charge_parallel_for(edge_idx.size, label="spanner/remove-covered")

        edge_u, edge_v, lengths, edge_idx = (
            edge_u[keep], edge_v[keep], lengths[keep], edge_idx[keep]
        )
        cluster = new_cluster

    # ------------------------------------------------------------------ #
    # Phase 2: vertex-cluster joining on the final clustering.
    # ------------------------------------------------------------------ #
    if edge_idx.size:
        du = np.concatenate([edge_u, edge_v])
        dv = np.concatenate([edge_v, edge_u])
        dlen = np.concatenate([lengths, lengths])
        didx = np.concatenate([edge_idx, edge_idx])
        head_cluster = cluster[dv]
        valid = head_cluster >= 0
        du, dlen, didx, head_cluster = du[valid], dlen[valid], didx[valid], head_cluster[valid]
        if du.size:
            _, _, _, phase2_edges, _ = _lightest_per_group(du, head_cluster, dlen, didx)
            chosen[phase2_edges] = True
        tracker.charge_reduction(max(du.size, 1), label="spanner/phase2")

    return np.flatnonzero(chosen)


def _cost_delta(tracker: PRAMTracker, before: PRAMCost) -> PRAMCost:
    """Cost charged to ``tracker`` since ``before`` was snapshotted."""
    after = tracker.total
    return PRAMCost(after.work - before.work, after.depth - before.depth)


def baswana_sen_spanner(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> SpannerResult:
    """Compute a (2k-1)-spanner of ``graph`` in the resistive metric.

    Parameters
    ----------
    graph:
        Weighted input graph.  Parallel edges are allowed; each is treated
        independently (only one of a parallel class can enter the spanner).
    k:
        Number of clustering levels; defaults to ``ceil(log2 n)`` which
        yields the paper's log n-spanner with expected ``O(n log n)`` edges.
    seed:
        RNG seed controlling cluster sampling.
    tracker:
        Optional :class:`PRAMTracker` to charge; a fresh one is used if
        omitted.  The result's ``cost`` is always the delta charged by
        this call, so costs of successive calls on a shared tracker sum
        to the tracker total.

    Returns
    -------
    SpannerResult
    """
    n = graph.num_vertices
    m = graph.num_edges
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    if k < 1:
        raise GraphError(f"spanner parameter k must be >= 1, got {k}")
    rng = as_rng(seed)
    tracker = tracker if tracker is not None else PRAMTracker()
    before = tracker.total

    if m == 0 or n <= 1:
        return SpannerResult(
            spanner=Graph(n),
            edge_indices=np.array([], dtype=np.int64),
            stretch_target=float(2 * k - 1),
            k=k,
            cost=_cost_delta(tracker, before),
        )

    selected = _spanner_select(
        n, graph.edge_u, graph.edge_v, graph.edge_weights, k, rng, tracker
    )
    return SpannerResult(
        spanner=graph.select_edges(selected),
        edge_indices=selected,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=_cost_delta(tracker, before),
    )
