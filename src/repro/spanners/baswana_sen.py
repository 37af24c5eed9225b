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
position) — the earliest-row-at-the-minimum tie-break — and a length
*class* (equal lengths share one).  A clustering iteration packs
(tail, head cluster, rank) of its acting rows into one int64 key and
value-sorts the keys (:class:`_KeyLayout`, which the CONGEST decision
round shares): equal runs of the (tail, cluster) part are the groups
and each group's first row is its lightest.  Each vertex is decided by
one segmented minimum over packed (unsampled flag, class, group start)
keys of its groups, the covered edges are the rows of the kept groups,
and the head clusters the same-cluster test gathers carry over to the
next iteration's scan.  The passes write into row-length buffers the
:class:`_Rows` allocates once, so a call's iterations reuse them.  A
component starts on exactly its live rows: a bundle compacts the
shared rows past the edges each component took (:meth:`_Rows.compact`)
before the next one starts.  Rows that die inside a component are
masked by a live-edge vector until a quarter of them is dead, when the
component compacts its own copies of the rows.  The tables whose
values are ranks, classes or edge ids are int32 while ``2m`` is below
``_INT32_LIMIT``; the packed keys and the ``head`` gather index stay
int64.  One clustering iteration is a small constant number of flat
NumPy passes with no Python loop over vertices.  The pre-vectorization
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
# Decision keys pack (unsampled flag, length class, group start) into one
# int64 when the three fields fit in this many bits; wider inputs take
# two minimum reductions instead.
_DECISION_BITS = 63
# The row arrays are compacted once at least this share of them is dead.
_COMPACT_FRACTION = 0.25
# The rank, class and edge tables (``edge_of_rank``, ``class_of_rank``,
# ``edge`` and the ``ranks`` scratch) hold values below 2m: int32 while
# 2m is below this bound, int64 past it.  Packed keys, and the ``head``
# array every iteration gathers through, are int64 at any size.
_INT32_LIMIT = 1 << 31


def _run_bounds(ids: np.ndarray, flags: Optional[np.ndarray] = None) -> np.ndarray:
    """Start of every run of equal values in ``ids``, then ``ids.size``.

    ``flags`` is a scratch bool buffer of at least ``ids.size + 1``
    entries (one is allocated when it is omitted).
    """
    size = ids.shape[0]
    head = np.empty(size + 1, dtype=bool) if flags is None else flags[: size + 1]
    head[0] = True
    np.not_equal(ids[1:], ids[:-1], out=head[1:size])
    head[size] = True
    return np.flatnonzero(head)


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

        Returns ``(group_ids, bounds, ranks)``: per group, its id ``tail <<
        cluster_bits | cluster`` (ascending); the sorted position of each
        group's first row, which is its lightest under the rank
        tie-break, followed by the number of rows; per sorted row, its
        rank.
        """
        if self.packed:
            keys = cluster << self.rank_bits
            keys |= base
            return self.split(keys)
        ids = base >> self.tail_shift
        ranks = base & ((1 << self.rank_bits) - 1)
        order = np.lexsort((ranks, cluster, ids))
        ids <<= self.cluster_bits
        ids |= cluster
        ids = ids.take(order)
        bounds = _run_bounds(ids)
        return ids.take(bounds[:-1]), bounds, ranks.take(order)

    def split(
        self,
        keys: np.ndarray,
        ranks: Optional[np.ndarray] = None,
        flags: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`groups` of packed keys, which are sorted in place.

        The keys are unique, so a value sort gives the stable order.
        ``ranks`` (``keys.size`` entries of any integer type that holds
        a rank) receives the sorted ranks and ``flags`` is the
        run-boundary scratch of :func:`_run_bounds`.
        """
        keys.sort()
        ranks = np.bitwise_and(keys, (1 << self.rank_bits) - 1, out=ranks)
        keys >>= self.rank_bits
        bounds = _run_bounds(keys, flags)
        return keys.take(bounds[:-1]), bounds, ranks


class _Rows(_KeyLayout):
    """The directed edge rows of one input, built once and shared by every
    spanner component a bundle builds on it, with the row workspace those
    components run in.

    Rows come in pairs: with ``h = edge.size`` pairs, row ``i`` is edge
    ``edge[i]`` as ``u -> v`` and row ``h + i`` the same edge as
    ``v -> u``, so each half's tails are the other half's heads.  Every
    row has a *rank* in ``[0, 2m)`` ordering rows by (length, direction,
    edge position): the earliest row of the concatenated ``[u -> v;
    v -> u]`` view among the lightest, which is the tie-break the goldens
    pin.  ``base`` holds each row's base key ``tail << tail_shift | rank``
    (see :class:`_KeyLayout`).  Equal lengths share one *class*, numbered
    in rank order, so comparing classes compares lengths:
    ``class_of_rank`` maps ranks to classes, and is ``None`` when all
    lengths differ and ``rank >> 1`` is the class.

    ``edge`` names the input edge of each row pair.  A bundle drops the
    pairs of the edges a component took with :meth:`compact`, so every
    component starts on exactly the rows of its live edges; the rank
    tables, indexed by rank, keep all ``2m`` entries.  ``edge``,
    ``edge_of_rank``, ``class_of_rank`` and ``ranks`` are int32 while
    ``2m < _INT32_LIMIT``; ``base`` (packed keys) and ``head`` (a gather
    index of every iteration) are int64.

    ``scan``, ``flags`` and ``ranks`` are row-length scratch buffers that
    every clustering iteration writes into.  They live as long as the
    rows, that is one :func:`baswana_sen_spanner` or
    :func:`~repro.spanners.bundle.bundle_select` call, so concurrent
    calls never share them.
    """

    __slots__ = (
        "n", "base", "head", "edge", "edge_of_rank", "class_of_rank", "class_bits",
        "cluster_shift", "scan", "flags", "ranks",
    )

    def __init__(
        self, n: int, edge_u: np.ndarray, edge_v: np.ndarray, weights: np.ndarray
    ) -> None:
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        m = edge_u.shape[0]
        super().__init__(n, 2 * m)
        self.n = n
        table = np.int32 if 2 * m < _INT32_LIMIT else np.int64

        # One sort of the m lengths ranks all 2m rows: a run of z equal
        # lengths at sorted position s ranks its forward rows 2s .. 2s+z-1
        # and its backward rows 2s+z .. 2s+2z-1.  An unstable sort gives
        # the stable order when no two lengths are equal; ties need the
        # stable one, which orders them by edge position.  Temporaries are
        # dropped as soon as they are used: the kernel's arrays set the
        # batch pipeline's peak memory.
        lengths = 1.0 / np.asarray(weights)  # resistive metric
        order = np.argsort(lengths)
        run_bounds = _run_bounds(lengths.take(order))
        num_classes = run_bounds.shape[0] - 1
        if num_classes < m:
            order = np.argsort(lengths, kind="stable")
        del lengths
        run_sizes = np.diff(run_bounds)
        classes = np.arange(num_classes, dtype=table)
        run_of = np.repeat(classes, run_sizes)
        forward = run_bounds.take(run_of)
        forward += np.arange(m, dtype=np.int64)
        backward = run_sizes.take(run_of)
        backward += forward
        del run_of, run_bounds
        # With distinct lengths sorted position s ranks rows 2s and 2s+1,
        # so ``rank >> 1`` is the class and no table is kept.
        self.class_bits = max(num_classes - 1, 1).bit_length()
        self.class_of_rank = None if num_classes == m else np.repeat(classes, 2 * run_sizes)
        del classes, run_sizes
        rank = np.empty(2 * m, dtype=np.int64)
        rank[order] = forward
        rank[m:][order] = backward
        self.edge_of_rank = np.empty(2 * m, dtype=table)
        self.edge_of_rank[forward] = order
        self.edge_of_rank[backward] = order
        del order, forward, backward

        self.head = np.concatenate([edge_v, edge_u])
        self.base = np.concatenate([edge_u, edge_v])
        self.base <<= self.tail_shift
        self.base |= rank
        del rank
        self.edge = np.arange(m, dtype=table)

        # Head clusters travel pre-shifted to their place in the packed key.
        self.cluster_shift = self.rank_bits if self.packed else 0
        self.scan = np.empty(2 * m, dtype=bool)
        self.flags = np.empty(2 * m + 1, dtype=bool)
        self.ranks = np.empty(2 * m, dtype=table)

    def compact(self, remaining: np.ndarray) -> None:
        """Drop the row pairs of the edges ``remaining`` no longer flags.

        The arrays are replaced one at a time, so only one extra copy is
        live.
        """
        pairs = np.flatnonzero(remaining.take(self.edge))
        self.base = _take_pairs(self.base, pairs)
        self.head = _take_pairs(self.head, pairs)
        self.edge = self.edge.take(pairs)

    def group(
        self, mask: np.ndarray, head_cluster: np.ndarray, base: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`groups` of the rows flagged in ``mask``, in the workspace.

        ``head_cluster`` holds each row's head cluster shifted by
        ``cluster_shift``; the packed path overwrites it with the rows'
        keys.  Returns ``None`` when no row is flagged.
        """
        if self.packed:
            keys = np.bitwise_or(head_cluster, base, out=head_cluster)
            keys = keys.take(np.flatnonzero(mask))
            if keys.shape[0] == 0:
                return None
            return self.split(keys, self.ranks[: keys.shape[0]], self.flags)
        rows = np.flatnonzero(mask)
        if rows.shape[0] == 0:
            return None
        return self.groups(base.take(rows), head_cluster.take(rows))


def _rows_of_groups(bounds: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Sorted positions of every row of ``groups`` (runs between ``bounds``)."""
    first = bounds.take(groups)
    sizes = bounds.take(groups + 1)
    sizes -= first
    offsets = np.cumsum(sizes)
    offsets -= sizes
    first -= offsets
    positions = np.repeat(first, sizes)
    positions += np.arange(positions.shape[0], dtype=np.int64)
    return positions


def _take_pairs(row_values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Both rows of each of ``pairs`` from a pair-layout row array."""
    return row_values.reshape(2, -1).take(pairs, axis=1).reshape(-1)


def _vertex_decisions(
    rows: _Rows,
    group_ids: np.ndarray,
    bounds: np.ndarray,
    ranks: np.ndarray,
    center_sampled: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex Baswana–Sen decisions over the (vertex, cluster) groups.

    Groups are sorted by (vertex, cluster), one segment per acting
    vertex.  Case (a) — no adjacent sampled cluster — keeps every group;
    case (b) keeps the groups of strictly smaller length class plus the
    *target*, the lightest sampled group (smallest cluster id on equal
    classes), whose cluster the vertex joins.  The removal (vertex,
    cluster) pairs coincide with the kept groups in both cases.  One
    minimum reduction over packed (unsampled flag, class, group start)
    keys decides every vertex: the flag marks case (a), and since group
    starts ascend with the cluster id inside a segment, equal classes
    resolve to the smallest cluster.

    Returns ``(kept, group_ranks, joining_vertices, their_clusters)``:
    the kept group positions, each group's rank, and the case (b)
    vertices with their targets' clusters.  ``group_ids`` is consumed.
    """
    num_groups = group_ids.shape[0]
    starts = bounds[:-1]
    group_cluster = group_ids & ((1 << rows.cluster_bits) - 1)
    group_vertex = np.right_shift(group_ids, rows.cluster_bits, out=group_ids)
    segments = _run_bounds(group_vertex, rows.flags)
    seg_starts = segments[:-1]
    seg_sizes = np.diff(segments)
    group_rank = ranks.take(starts)
    if rows.class_of_rank is None:
        group_class = group_rank >> 1
    else:
        group_class = rows.class_of_rank.take(group_rank)

    start_bits = max(ranks.shape[0] - 1, 1).bit_length()
    if rows.class_bits + start_bits + 1 <= _DECISION_BITS:
        # Classes may sit in an int32 table; the shifted key needs 64 bits.
        keys = group_class.astype(np.int64, copy=False)
        keys <<= start_bits
        keys |= starts
        flag = 1 << (rows.class_bits + start_bits)
        masked = np.where(center_sampled, 0, flag).take(group_cluster)
        masked |= keys
        best = np.minimum.reduceat(masked, seg_starts)
        del masked  # before the widest temporary below
        joins = best < flag
        target = np.searchsorted(starts, best[joins] & ((1 << start_bits) - 1))
        # A case (a) minimum keeps its flag, so every key of its segment
        # lies below the class bound.
        best >>= start_bits
        best <<= start_bits
        keep = np.less(keys, np.repeat(best, seg_sizes), out=rows.flags[:num_groups])
    else:
        sampled = center_sampled.take(group_cluster)
        none = 1 << rows.class_bits
        masked = np.where(sampled, group_class, none)
        best = np.minimum.reduceat(masked, seg_starts)
        joins = best < none
        best_of_group = np.repeat(best, seg_sizes)
        candidate = masked == best_of_group
        candidate &= sampled
        first = np.minimum.reduceat(
            np.where(candidate, np.arange(num_groups, dtype=np.int64), num_groups), seg_starts
        )
        target = first[joins]
        keep = group_class < best_of_group
    keep[target] = True
    return (
        np.flatnonzero(keep),
        group_rank,
        group_vertex.take(seg_starts[joins]),
        group_cluster.take(target),
    )


def _spanner_select(
    rows: _Rows, alive: np.ndarray, k: int, rng: RandomState, tracker: PRAMTracker
) -> np.ndarray:
    """Core Baswana–Sen edge selection over the rows of the ``alive`` edges.

    ``alive`` is a vector over the input edges ``rows`` was built from.
    It flags the edges this spanner runs on, which are the edges whose
    rows ``rows`` holds (a bundle compacts the rows before each later
    component), and it is consumed as working state.  Returns the sorted
    input indices of the spanner edges.  The bundle peel calls this
    directly with one :class:`_Rows` for all ``t`` components, so no
    component rebuilds rows or materialises an intermediate ``Graph``.
    Rows that die inside the component stay until a quarter of them is
    dead, when the component compacts its own copies; until then
    ``pairs > live_edges`` says some are present and must be masked out.
    """
    n = rows.n
    shift = rows.cluster_shift
    base, head, edge = rows.base, rows.head, rows.edge
    live_edges = int(np.count_nonzero(alive))

    # cluster[v] = centre vertex id, or -1 once v leaves the clustering;
    # head_cluster[r] = cluster[head[r]] << shift, carried from the
    # same-cluster test of one iteration to the scan of the next.
    cluster = np.arange(n, dtype=np.int64)
    head_cluster = head << shift
    sample_probability = float(n) ** (-1.0 / k) if n > 1 else 1.0

    chosen = np.zeros(alive.shape[0], dtype=bool)

    for _iteration in range(k - 1):
        if live_edges == 0:
            break
        # --- sample clusters -------------------------------------------------
        clustered = cluster >= 0
        is_center = np.zeros(n, dtype=bool)
        is_center[cluster[clustered]] = True
        active_centers = np.flatnonzero(is_center)
        sampled_flags = rng.random(active_centers.shape[0]) < sample_probability
        center_sampled = np.zeros(n, dtype=bool)
        center_sampled[active_centers[sampled_flags]] = True
        # PRAM: each cluster flips a coin, each vertex reads its centre's coin.
        tracker.charge_parallel_for(active_centers.shape[0], label="spanner/sample-clusters")
        tracker.charge_parallel_for(n, label="spanner/propagate-sampling")

        # (An unclustered vertex reads entry -1, which ``clustered`` masks.)
        in_sampled = center_sampled.take(cluster)
        in_sampled &= clustered
        new_cluster = np.where(in_sampled, cluster, -1)

        # --- group the acting rows by (tail, head cluster) -------------------
        # Only clustered heads count, and only tails outside sampled
        # clusters act this iteration.
        pairs = edge.shape[0]
        act = np.greater_equal(head_cluster, 0, out=rows.scan[: 2 * pairs])
        act_pairs = act.reshape(2, pairs)
        outside = ~in_sampled
        act_pairs[0] &= outside.take(head[pairs:])
        act_pairs[1] &= outside.take(head[:pairs])
        if pairs > live_edges:
            act_pairs &= alive.take(edge)
        tracker.charge_parallel_for(2 * live_edges, label="spanner/scan-edges")
        grouped = rows.group(act, head_cluster, base)
        # The packed grouping keeps its keys in head_cluster; both branches
        # below gather the next head clusters afresh.
        del head_cluster

        if grouped is None:
            # Nothing to do; clustering simply persists for sampled clusters.
            cluster = new_cluster
            head_cluster = (cluster << shift).take(head)
            continue

        group_ids, bounds, ranks = grouped
        # PRAM: grouping/minimum per (v, c) pair is a segmented reduction.
        tracker.charge_reduction(ranks.shape[0], label="spanner/group-min")
        num_groups = group_ids.shape[0]
        kept, group_rank, joining, targets = _vertex_decisions(
            rows, group_ids, bounds, ranks, center_sampled
        )
        new_cluster[joining] = targets
        # PRAM: decisions are per-vertex constant-depth selections (with a
        # log-depth min over the vertex's adjacent clusters).
        tracker.charge_reduction(num_groups, label="spanner/vertex-decisions")
        chosen[rows.edge_of_rank.take(group_rank.take(kept))] = True

        # --- remove covered edges -------------------------------------------
        # An edge (x, y) is removed if the pair (x, cluster_old(y)) or
        # (y, cluster_old(x)) was scheduled for removal, or if both endpoints
        # now share a cluster (it is covered inside that cluster).  The
        # removal pairs are exactly the kept groups, so their rows carry
        # every covered direction of every edge.  The shared-cluster test
        # runs once per row pair, on the new head clusters of both halves,
        # which the next iteration scans.
        covered = _rows_of_groups(bounds, kept)
        alive[rows.edge_of_rank.take(ranks.take(covered))] = False
        head_cluster = (new_cluster << shift).take(head)
        tail_cluster = head_cluster[pairs:]
        same = np.flatnonzero(np.equal(tail_cluster, head_cluster[:pairs], out=rows.scan[:pairs]))
        alive[edge.take(same[tail_cluster.take(same) >= 0])] = False
        del tail_cluster  # a view: it would keep a compacted-away head_cluster alive
        tracker.charge_parallel_for(live_edges, label="spanner/remove-covered")
        live_edges = int(np.count_nonzero(alive))
        cluster = new_cluster

        if pairs - live_edges >= _COMPACT_FRACTION * pairs:
            # Replace one array at a time so only one extra copy is live.
            live_pairs = np.flatnonzero(alive.take(edge))
            base = _take_pairs(base, live_pairs)
            head = _take_pairs(head, live_pairs)
            head_cluster = _take_pairs(head_cluster, live_pairs)
            edge = edge.take(live_pairs)

    # ------------------------------------------------------------------ #
    # Phase 2: vertex-cluster joining on the final clustering.
    # ------------------------------------------------------------------ #
    if live_edges:
        pairs = edge.shape[0]
        valid = np.greater_equal(head_cluster, 0, out=rows.scan[: 2 * pairs])
        if pairs > live_edges:
            valid_pairs = valid.reshape(2, pairs)
            valid_pairs &= alive.take(edge)
        grouped = rows.group(valid, head_cluster, base)
        valid_rows = 0
        if grouped is not None:
            _, bounds, ranks = grouped
            valid_rows = ranks.shape[0]
            chosen[rows.edge_of_rank.take(ranks.take(bounds[:-1]))] = True
        tracker.charge_reduction(max(valid_rows, 1), label="spanner/phase2")

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
