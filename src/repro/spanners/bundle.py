"""t-bundle spanner construction (Definition 1, Corollaries 2–3).

A *t-bundle spanner* of ``G`` is ``H = H_1 + ... + H_t`` where ``H_i`` is a
spanner of ``G - (H_1 + ... + H_{i-1})``: each successive spanner is
computed on the graph with the previous spanners' edges peeled off, so the
components are edge-disjoint.  Section 3.1 of the paper notes that the
construction is "the obvious iterative one": edges already in the bundle
simply declare themselves out of the next spanner computation, so each of
the ``t`` iterations costs one spanner construction on the remaining
edges.

The key consequence (Lemma 1 / Corollary 1): every edge of ``G`` outside
the bundle has ``t`` edge-disjoint certified short paths, hence leverage
score at most ``~log n / t``.

The peel loop operates directly on the working ``(u, v, w, index)``
arrays: each round calls the raw-array spanner core
(:func:`repro.spanners.baswana_sen._spanner_select`) and slices the
arrays down by a boolean mask, the index array mapping every surviving
position back to the input.  No intermediate :class:`Graph` is
constructed or validated during the ``t`` rounds; the bundle subgraph is
built exactly once at the end, by :meth:`Graph.select_edges` on the
bundle's indices.  The tree bundle and the CONGEST bundle peel the same
way, on an index array into the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.spanners.baswana_sen import _cost_delta, _spanner_select
from repro.utils.rng import SeedLike, as_rng, split_rng

__all__ = [
    "BundleResult",
    "bundle_select",
    "t_bundle_spanner",
    "bundle_size_for_epsilon",
    "bundle_for_epsilon",
]


@dataclass
class BundleResult:
    """Output of a t-bundle construction.

    Attributes
    ----------
    bundle:
        The union ``H_1 + ... + H_t`` as a subgraph of the input.
    edge_indices:
        Sorted indices (into the input graph) of all bundle edges.
    component_edge_indices:
        Per-component index arrays ``[indices of H_1, ..., indices of H_t]``.
    t:
        Number of bundle components actually built (may be smaller than
        requested if the graph ran out of edges first).
    requested_t:
        The ``t`` that was asked for.
    exhausted:
        True if the bundle absorbed every edge of the graph (the remaining
        graph is empty, so sampling has nothing left to do).
    cost:
        Total PRAM work/depth of all component spanner constructions.
        With a shared tracker this is the delta charged by this call, so
        per-bundle costs sum correctly across calls.
    """

    bundle: Graph
    edge_indices: np.ndarray
    component_edge_indices: List[np.ndarray]
    t: int
    requested_t: int
    exhausted: bool
    cost: PRAMCost = field(default_factory=PRAMCost)

    @property
    def num_edges(self) -> int:
        return int(self.edge_indices.shape[0])


def bundle_size_for_epsilon(num_vertices: int, epsilon: float, constant: float = 24.0) -> int:
    """The bundle size ``t = constant * log2(n)^2 / epsilon^2`` used by Algorithm 1.

    The paper's PARALLELSAMPLE uses ``24 log^2 n / eps^2``; the constant is
    exposed so the "practical" configuration can scale it down (see
    :class:`repro.core.config.SparsifierConfig`).
    """
    if epsilon <= 0:
        raise GraphError(f"epsilon must be positive, got {epsilon}")
    log_n = np.log2(max(num_vertices, 2))
    return max(1, int(np.ceil(constant * log_n * log_n / (epsilon * epsilon))))


def bundle_select(
    num_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_weights: np.ndarray,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
    stop_when_exhausted: bool = True,
) -> Tuple[List[np.ndarray], np.ndarray, int, bool]:
    """Raw-array t-bundle selection: the peel loop without materialisation.

    This is the kernel behind :func:`t_bundle_spanner`, exposed so callers
    that already hold validated edge arrays (the streaming sparsifier's
    compaction step, shard workers) can run the ``t``-round peel without
    constructing a :class:`Graph` at all.  RNG discipline is identical to
    :func:`t_bundle_spanner`: ``as_rng(seed)`` then one
    :func:`~repro.utils.rng.split_rng` sub-stream per component, so a
    given seed selects bit-identical bundles through either entry point.

    Returns ``(component_indices, all_indices, built, exhausted)`` where
    indices are positions into the input arrays, ``built`` is the number
    of components constructed and ``exhausted`` says the bundle absorbed
    every edge.
    """
    if t < 1:
        raise GraphError(f"bundle size t must be >= 1, got {t}")
    tracker = tracker if tracker is not None else PRAMTracker()
    rng = as_rng(seed)
    component_rngs = split_rng(rng, t)

    n = num_vertices
    if k is None:
        k_eff = max(1, int(np.ceil(np.log2(max(n, 2)))))
    else:
        k_eff = k
    if k_eff < 1:
        raise GraphError(f"spanner parameter k must be >= 1, got {k_eff}")

    # Working edge arrays; ``cur_idx`` maps positions back to the input.
    cur_u = np.asarray(edge_u)
    cur_v = np.asarray(edge_v)
    cur_w = np.asarray(edge_weights)
    m = cur_u.shape[0]
    cur_idx = np.arange(m, dtype=np.int64)
    component_indices: List[np.ndarray] = []
    built = 0
    exhausted = False

    for i in range(t):
        if cur_idx.size == 0:
            exhausted = True
            if stop_when_exhausted:
                break
            component_indices.append(np.array([], dtype=np.int64))
            built += 1
            continue
        local = _spanner_select(n, cur_u, cur_v, cur_w, k_eff, component_rngs[i], tracker)
        # Both ascending (``cur_idx`` is only ever masked), so already sorted.
        component_indices.append(cur_idx[local])
        built += 1
        if local.size == cur_idx.size:
            exhausted = True
            if stop_when_exhausted:
                break
            cur_u = cur_u[:0]
            cur_v = cur_v[:0]
            cur_w = cur_w[:0]
            cur_idx = cur_idx[:0]
            continue
        if i == t - 1:
            # Final round: the peeled remainder is never used (``local`` is
            # a strict subset here, so the bundle did not exhaust the graph).
            break
        keep_mask = np.ones(cur_idx.size, dtype=bool)
        keep_mask[local] = False
        cur_u = cur_u[keep_mask]
        cur_v = cur_v[keep_mask]
        cur_w = cur_w[keep_mask]
        cur_idx = cur_idx[keep_mask]
        tracker.charge_parallel_for(keep_mask.shape[0], label="bundle/peel-edges")

    if component_indices:
        num_chosen = int(sum(c.shape[0] for c in component_indices))
        # One mask over the input edges assembles the bundle from its components.
        in_bundle = np.zeros(m, dtype=bool)
        for indices in component_indices:
            in_bundle[indices] = True
        all_indices = np.flatnonzero(in_bundle)
        tracker.charge_reduction(max(num_chosen, 1), label="bundle/assemble")
    else:
        all_indices = np.array([], dtype=np.int64)
    return component_indices, all_indices, built, exhausted


def t_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
    stop_when_exhausted: bool = True,
) -> BundleResult:
    """Build a t-bundle spanner of ``graph``.

    Parameters
    ----------
    graph:
        Input weighted graph (a shard worker passes its shard's
        :meth:`~repro.graphs.graph.Graph.select_edges` subgraph).
        ``edge_indices`` are relative to the given graph.
    t:
        Number of edge-disjoint spanner components requested.
    k:
        Baswana–Sen parameter for each component (default ``ceil(log2 n)``).
    seed:
        RNG seed; component constructions receive independent sub-streams.
    tracker:
        Optional shared PRAM tracker.
    stop_when_exhausted:
        Stop early once every edge of the graph has been absorbed into the
        bundle (the remaining graph is empty).  This is the behaviour the
        sparsifier wants: a bundle that already contains all of ``G``
        certifies nothing more by adding empty components.

    Returns
    -------
    BundleResult
    """
    tracker = tracker if tracker is not None else PRAMTracker()
    before = tracker.total
    component_indices, all_indices, built, exhausted = bundle_select(
        graph.num_vertices,
        graph.edge_u,
        graph.edge_v,
        graph.edge_weights,
        t,
        k=k,
        seed=seed,
        tracker=tracker,
        stop_when_exhausted=stop_when_exhausted,
    )
    return BundleResult(
        bundle=graph.select_edges(all_indices),
        edge_indices=all_indices,
        component_edge_indices=component_indices,
        t=built,
        requested_t=t,
        exhausted=exhausted,
        cost=_cost_delta(tracker, before),
    )


def bundle_for_epsilon(
    graph: Graph,
    epsilon: float,
    constant: float = 24.0,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> BundleResult:
    """Bundle with the Algorithm-1 size ``t = constant * log^2 n / epsilon^2``."""
    t = bundle_size_for_epsilon(graph.num_vertices, epsilon, constant=constant)
    return t_bundle_spanner(graph, t=t, k=k, seed=seed, tracker=tracker)
