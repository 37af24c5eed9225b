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

The directed edge rows are built once per input (:class:`_Rows`; a
t-bundle shares them across its components) and each row carries a
precomputed *rank* that orders rows by (length, direction, edge
position) — the earliest-row-at-the-minimum tie-break.  A clustering
iteration packs (tail, head cluster, rank) of its acting rows into one
int64 key and value-sorts the keys (:class:`_KeyLayout`, which the
CONGEST decision round shares): equal runs of the (tail, cluster)
part are the groups and each group's first row is its lightest, so no
stable argsort, minimum reduction or argmin pass touches the rows.  The
per-vertex decisions are segmented reductions (``np.minimum.reduceat`` /
``np.logical_or.reduceat``) over the groups, covered edges are the rows
of the kept groups, and dead rows are masked by a live-edge vector until
a quarter of them has died, when the rows are compacted.  One
clustering iteration is a small constant number of flat NumPy passes
with no Python loop over vertices.  The pre-vectorization
implementation is preserved in :mod:`repro.spanners._reference` for
golden tests and benchmarking; both select bit-identical edge sets for
a fixed seed.
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
from repro.utils.validation import check_count

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


# Grouping keys pack (tail, cluster, rank) into one int64 when the three
# fields fit in this many bits; wider inputs sort the same triples with
# ``np.lexsort`` instead.
_KEY_BITS = 63
# The row arrays are compacted once at least this share of them is dead.
_COMPACT_FRACTION = 0.25


class _KeyLayout:
    """Bit layout of the (tail, cluster, rank) grouping keys.

    Both Baswana–Sen engines group their acting rows — directed edge rows
    here, incidence slots in :mod:`repro.spanners.congest_spanner` — by
    (tail vertex, cluster of the other end) and want each group's lightest
    row first.  Over ``n`` vertices and ``num_ranks`` distinct ranks, a
    row's *base* key is ``tail << tail_shift | rank``; :meth:`groups` ORs
    the cluster in at bit ``rank_bits`` and value-sorts the keys.  Inputs
    whose three fields exceed ``_KEY_BITS`` keep the same base and sort
    the triples with ``np.lexsort``.
    """

    __slots__ = ("rank_bits", "cluster_bits", "tail_shift", "packed")

    def __init__(self, n: int, num_ranks: int) -> None:
        self.rank_bits = max(num_ranks - 1, 1).bit_length()
        self.cluster_bits = max(n - 1, 0).bit_length()
        self.packed = 2 * self.cluster_bits + self.rank_bits <= _KEY_BITS
        self.tail_shift = self.rank_bits + (self.cluster_bits if self.packed else 0)

    def groups(
        self, base: np.ndarray, cluster: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort rows by (tail, cluster, rank) and find the (tail, cluster) groups.

        Returns ``(group_ids, starts, ranks)``: per group, its id ``tail <<
        cluster_bits | cluster`` (ascending) and the sorted position of its
        first row, which is its lightest under the rank tie-break; per
        sorted row, its rank.
        """
        rank_mask = (1 << self.rank_bits) - 1
        if self.packed:
            # The keys are unique, so a value sort gives the stable order.
            ids = cluster << self.rank_bits
            ids |= base
            ids.sort()
            ranks = ids & rank_mask
            ids >>= self.rank_bits
        else:
            ids = base >> self.tail_shift
            ranks = base & rank_mask
            order = np.lexsort((ranks, cluster, ids))
            ids <<= self.cluster_bits
            ids |= cluster
            ids = ids.take(order)
            ranks = ranks.take(order)
        boundary = np.empty(ids.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(ids[1:], ids[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        return ids.take(starts), starts, ranks


class _Rows(_KeyLayout):
    """The directed edge rows of one input, built once and shared by every
    spanner component a bundle builds on it.

    Rows come in pairs: with ``h = edge.size`` pairs, row ``i`` is edge
    ``edge[i]`` as ``u -> v`` and row ``h + i`` the same edge as
    ``v -> u``, so each half's tails are the other half's heads.  Every
    row has a *rank* in ``[0, 2m)`` ordering rows by (length, direction,
    edge position): the earliest row of the concatenated ``[u -> v;
    v -> u]`` view among the lightest, which is the tie-break the goldens
    pin.  ``base`` holds each row's base key ``tail << tail_shift | rank``
    (see :class:`_KeyLayout`).
    """

    __slots__ = ("n", "lengths", "base", "head", "edge", "edge_of_rank")

    def __init__(
        self, n: int, edge_u: np.ndarray, edge_v: np.ndarray, weights: np.ndarray
    ) -> None:
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        m = edge_u.shape[0]
        super().__init__(n, 2 * m)
        self.n = n
        self.lengths = 1.0 / np.asarray(weights)  # resistive metric

        # One stable sort of the m lengths ranks all 2m rows: a run of z
        # equal lengths at sorted position s ranks its forward rows
        # 2s .. 2s+z-1 and its backward rows 2s+z .. 2s+2z-1.  Temporaries
        # are dropped as soon as they are used: the kernel's arrays set
        # the batch pipeline's peak memory.
        order = np.argsort(self.lengths, kind="stable")
        sorted_lengths = self.lengths.take(order)
        run_head = np.empty(m, dtype=bool)
        run_head[:1] = True
        np.not_equal(sorted_lengths[1:], sorted_lengths[:-1], out=run_head[1:])
        del sorted_lengths
        run_starts = np.flatnonzero(run_head)
        run_of = np.cumsum(run_head) - 1
        del run_head
        forward = run_starts.take(run_of)
        forward += np.arange(m, dtype=np.int64)
        backward = forward + np.diff(np.append(run_starts, m)).take(run_of)
        del run_starts, run_of
        rank = np.empty(2 * m, dtype=np.int64)
        rank[order] = forward
        rank[m + order] = backward
        self.edge_of_rank = np.empty(2 * m, dtype=np.int64)
        self.edge_of_rank[forward] = order
        self.edge_of_rank[backward] = order
        del order, forward, backward

        self.head = np.concatenate([edge_v, edge_u])
        self.base = np.concatenate([edge_u, edge_v])
        self.base <<= self.tail_shift
        self.base |= rank
        del rank
        self.edge = np.arange(m, dtype=np.int64)


def _rows_of_groups(starts: np.ndarray, sizes: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Sorted positions of every row of ``groups`` (runs at ``starts``)."""
    sizes = sizes.take(groups)
    positions = np.repeat(starts.take(groups) - (np.cumsum(sizes) - sizes), sizes)
    positions += np.arange(positions.shape[0], dtype=np.int64)
    return positions


def _spanner_select(
    rows: _Rows, alive: np.ndarray, k: int, rng: RandomState, tracker: PRAMTracker
) -> np.ndarray:
    """Core Baswana–Sen edge selection over the rows of the ``alive`` edges.

    ``alive`` flags the edges (of the input ``rows`` was built from) this
    spanner runs on; it is consumed as working state.  Returns the sorted
    input indices of the spanner edges.  The bundle peel calls this
    directly with one :class:`_Rows` for all ``t`` components, so no
    component rebuilds rows or materialises an intermediate ``Graph``.
    """
    # Rows of dead edges stay until a compaction; ``pairs > live_edges``
    # says some are present and must be masked out.
    n = rows.n
    base, head, edge = rows.base, rows.head, rows.edge
    live_edges = int(np.count_nonzero(alive))
    cluster_bits = rows.cluster_bits
    cluster_mask = (1 << cluster_bits) - 1

    # cluster[v] = centre vertex id, or -1 once v leaves the clustering.
    cluster = np.arange(n, dtype=np.int64)
    sample_probability = float(n) ** (-1.0 / k) if n > 1 else 1.0

    chosen = np.zeros(alive.shape[0], dtype=bool)

    for _iteration in range(k - 1):
        if live_edges == 0:
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

        # --- group the acting rows by (tail, head cluster) -------------------
        # Only clustered heads count, and only tails outside sampled
        # clusters act this iteration.
        pairs = edge.shape[0]
        head_cluster = cluster.take(head)
        act = head_cluster >= 0
        act_pairs = act.reshape(2, pairs)
        outside = ~in_sampled
        act_pairs[0] &= outside.take(head[pairs:])
        act_pairs[1] &= outside.take(head[:pairs])
        if pairs > live_edges:
            act_pairs &= alive.take(edge)
        tracker.charge_parallel_for(2 * live_edges, label="spanner/scan-edges")
        acting_rows = np.flatnonzero(act)
        del act, act_pairs
        acting = acting_rows.shape[0]

        if acting == 0:
            # Nothing to do; clustering simply persists for sampled clusters.
            cluster = np.where(in_sampled, cluster, -1)
            continue

        grp_id, starts, ranks = rows.groups(
            base.take(acting_rows), head_cluster.take(acting_rows)
        )
        del head_cluster, acting_rows
        grp_v = grp_id >> cluster_bits
        grp_c = grp_id & cluster_mask
        grp_edge = rows.edge_of_rank.take(ranks.take(starts))
        grp_len = rows.lengths.take(grp_edge)
        # PRAM: grouping/minimum per (v, c) pair is a segmented reduction.
        tracker.charge_reduction(acting, label="spanner/group-min")

        # --- per-vertex decisions (segmented reductions) --------------------
        # Groups are sorted by (vertex, cluster); one segment per acting
        # vertex.  Case (a) — no adjacent sampled cluster — keeps every
        # group; case (b) keeps the strictly lighter groups plus the
        # lightest sampled one (smallest cluster id on ties).  The removal
        # (vertex, cluster) pairs coincide with the kept groups in both
        # cases.
        new_cluster = np.where(in_sampled, cluster, -1)

        num_groups = grp_v.size
        seg_starts = np.concatenate([[0], np.flatnonzero(grp_v[1:] != grp_v[:-1]) + 1])
        seg_lengths = np.diff(np.append(seg_starts, num_groups))
        seg_of = np.repeat(np.arange(seg_starts.size, dtype=np.int64), seg_lengths)

        entry_sampled = center_sampled[grp_c]
        seg_any_sampled = np.logical_or.reduceat(entry_sampled, seg_starts)
        masked_len = np.where(entry_sampled, grp_len, np.inf)
        seg_best_len = np.minimum.reduceat(masked_len, seg_starts)
        positions = np.arange(num_groups, dtype=np.int64)
        at_best = masked_len == seg_best_len[seg_of]
        seg_best_pos = np.minimum.reduceat(
            np.where(at_best, positions, num_groups), seg_starts
        )

        seg_vertices = grp_v[seg_starts]
        case_b = seg_any_sampled
        new_cluster[seg_vertices[~case_b]] = -1
        new_cluster[seg_vertices[case_b]] = grp_c[seg_best_pos[case_b]]

        keep = (
            ~case_b[seg_of]
            | (grp_len < seg_best_len[seg_of])
            | (positions == seg_best_pos[seg_of])
        )
        # PRAM: decisions are per-vertex constant-depth selections (with a
        # log-depth min over the vertex's adjacent clusters).
        tracker.charge_reduction(num_groups, label="spanner/vertex-decisions")

        kept = np.flatnonzero(keep)
        chosen[grp_edge.take(kept)] = True

        # --- remove covered edges -------------------------------------------
        # An edge (x, y) is removed if the pair (x, cluster_old(y)) or
        # (y, cluster_old(x)) was scheduled for removal, or if both endpoints
        # now share a cluster (it is covered inside that cluster).  The
        # removal pairs are exactly the kept groups, so their rows carry
        # every covered direction of every edge.  The shared-cluster test
        # runs once per row pair, on the heads of both halves.
        group_sizes = np.diff(np.append(starts, acting))
        covered = _rows_of_groups(starts, group_sizes, kept)
        alive[rows.edge_of_rank.take(ranks.take(covered))] = False
        tail_cluster = new_cluster.take(head[pairs:])
        same = tail_cluster == new_cluster.take(head[:pairs])
        same &= tail_cluster >= 0
        alive[edge.take(np.flatnonzero(same))] = False
        tracker.charge_parallel_for(live_edges, label="spanner/remove-covered")
        live_edges = int(np.count_nonzero(alive))
        cluster = new_cluster

        if pairs - live_edges >= _COMPACT_FRACTION * pairs:
            # Replace one array at a time so only one extra copy is live.
            live_pairs = np.flatnonzero(alive.take(edge))
            base = base.reshape(2, pairs).take(live_pairs, axis=1).reshape(-1)
            head = head.reshape(2, pairs).take(live_pairs, axis=1).reshape(-1)
            edge = edge.take(live_pairs)

    # ------------------------------------------------------------------ #
    # Phase 2: vertex-cluster joining on the final clustering.
    # ------------------------------------------------------------------ #
    if live_edges:
        pairs = edge.shape[0]
        head_cluster = cluster.take(head)
        valid = head_cluster >= 0
        if pairs > live_edges:
            valid_pairs = valid.reshape(2, pairs)
            valid_pairs &= alive.take(edge)
        valid_rows = np.flatnonzero(valid)
        if valid_rows.size:
            _, starts, ranks = rows.groups(
                base.take(valid_rows), head_cluster.take(valid_rows)
            )
            chosen[rows.edge_of_rank.take(ranks.take(starts))] = True
        tracker.charge_reduction(max(valid_rows.size, 1), label="spanner/phase2")

    return np.flatnonzero(chosen)


def _check_size(value: object, name: str) -> int:
    """``value`` as an ``int`` if it is an integer ``>= 1``, else :class:`GraphError`."""
    return check_count(value, name, GraphError)


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
    k = _check_size(k, "spanner parameter k")
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

    rows = _Rows(n, graph.edge_u, graph.edge_v, graph.edge_weights)
    selected = _spanner_select(rows, np.ones(m, dtype=bool), k, rng, tracker)
    return SpannerResult(
        spanner=graph.select_edges(selected),
        edge_indices=selected,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=_cost_delta(tracker, before),
    )
