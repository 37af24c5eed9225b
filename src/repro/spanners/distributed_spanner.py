"""Baswana–Sen spanner as a synchronous distributed (CONGEST) protocol.

This is the object behind Theorem 2 of the paper: a log n-spanner computed
in the synchronous distributed model in ``O(log^2 n)`` rounds with
``O(m log n)`` communication and ``O(log n)``-sized messages.  The
protocol runs on the columnar round engine
(:class:`repro.parallel.congest.ColumnarSimulator` executing
:class:`repro.spanners.congest_spanner.ColumnarBaswanaSenProgram`), so
rounds, message counts and message sizes are *measured*, not assumed.
The per-node object simulator that first defined these semantics lives in
:mod:`repro.spanners._reference`, where the parity tests pin the columnar
engine to it bit for bit.

Protocol outline (per clustering iteration ``i`` of ``k - 1``):

1. **Flood phase** (``i + 1`` rounds): each cluster centre samples its
   cluster with probability ``n^{-1/k}`` and floods ``(centre, sampled)``
   through the cluster; every clustered node forwards the tuple to *all*
   its neighbours exactly once, so by the end of the phase every node also
   knows the cluster and sampled status of each clustered neighbour.
2. **Decision round** (1 round): nodes outside sampled clusters apply the
   Baswana–Sen rule locally (join the nearest sampled cluster / connect to
   every lighter neighbouring cluster / leave the clustering), record the
   chosen spanner edges, and notify neighbours whose connecting edges are
   now covered so both endpoints mark them dead.

After the iterations, a final exchange + decision (2 rounds) implements
phase 2: every node keeps one lightest live edge per adjacent cluster of
the final clustering.

The protocol identifies edges by endpoint pairs, so the input is
coalesced to a simple graph first; the result records both the coalesced
graph and the selected edge indices into it.  :func:`distributed_bundle_spanner`
peels ``t`` protocol runs off one graph the way the shared-memory bundle
does: it keeps an index array of the input edges no component has taken
and builds each run's input once with :meth:`Graph.select_edges`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.parallel.congest import ColumnarSimulator
from repro.parallel.metrics import DistributedCost
from repro.spanners.congest_spanner import ColumnarBaswanaSenProgram, build_schedule
from repro.utils.rng import RandomState, SeedLike, as_rng, split_rng

__all__ = [
    "DistributedSpannerResult",
    "DistributedBundleResult",
    "distributed_baswana_sen_spanner",
    "distributed_bundle_spanner",
]


@dataclass
class DistributedSpannerResult:
    """Outcome of the distributed spanner protocol.

    Attributes
    ----------
    spanner:
        The spanner as a subgraph of the coalesced input graph.
    edge_indices:
        Indices of the chosen edges in ``simple_graph``.
    simple_graph:
        The coalesced (simple) version of the input the protocol ran on.
    stretch_target:
        ``2k - 1`` for the ``k`` used.
    k:
        Number of clustering levels.
    cost:
        Rounds / messages / max message size measured by the simulator.
    completed:
        Whether every node terminated within the round limit.
    """

    spanner: Graph
    edge_indices: np.ndarray
    simple_graph: Graph
    stretch_target: float
    k: int
    cost: DistributedCost
    completed: bool


def _sorted_membership(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``keys`` in the sorted unique array ``sorted_keys``.

    Two binary searches replace the ``np.isin`` sort-per-call: O(|keys|
    log |sorted_keys|) with no temporary sort of the haystack.
    """
    if sorted_keys.size == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    inside = pos < sorted_keys.size
    out = np.zeros(keys.shape[0], dtype=bool)
    out[inside] = sorted_keys[pos[inside]] == keys[inside]
    return out


def _protocol_inputs(
    graph: Graph, k: Optional[int], max_rounds: Optional[int]
) -> Tuple[Graph, int, int]:
    """``(coalesced graph, k, round cap)`` for one protocol run."""
    if max_rounds is not None and max_rounds < 1:
        raise GraphError(f"max_rounds must be >= 1, got {max_rounds}")
    if k is not None and k < 1:
        raise GraphError(f"spanner parameter k must be >= 1, got {k}")
    simple = graph.coalesce()
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(simple.num_vertices, 2)))))
    return simple, k, max_rounds or (len(build_schedule(k)) + 4)


def _spanner_result(
    simple: Graph, k: int, wanted_keys: np.ndarray, cost: DistributedCost, completed: bool
) -> DistributedSpannerResult:
    """Resolve the selected ``lo * n + hi`` keys into edge indices of ``simple``."""
    if wanted_keys.size:
        edge_indices = np.flatnonzero(_sorted_membership(wanted_keys, simple.edge_keys()))
    else:
        edge_indices = np.array([], dtype=np.int64)
    return DistributedSpannerResult(
        spanner=simple.select_edges(edge_indices),
        edge_indices=edge_indices,
        simple_graph=simple,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=cost,
        completed=completed,
    )


def distributed_baswana_sen_spanner(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
) -> DistributedSpannerResult:
    """Run the distributed Baswana–Sen protocol and collect the spanner.

    Parameters
    ----------
    graph:
        Input graph; parallel edges are coalesced before the protocol runs
        (the protocol identifies edges by endpoint pairs).
    k:
        Number of clustering levels; defaults to ``ceil(log2 n)``.
    seed:
        Simulator seed (drives every node's private RNG stream).
    max_rounds:
        Safety cap on rounds, at least 1 (:class:`GraphError` otherwise);
        defaults to a generous multiple of the schedule length.
    """
    simple, k, cap = _protocol_inputs(graph, k, max_rounds)
    run = ColumnarSimulator(simple, seed=seed).run(
        ColumnarBaswanaSenProgram(simple.num_vertices, k), max_rounds=cap
    )
    # run.outputs: sorted unique lo * n + hi keys of the selected edges.
    return _spanner_result(simple, k, run.outputs, run.cost, run.completed)


@dataclass
class DistributedBundleResult:
    """Outcome of peeling ``t`` distributed spanners off one graph/shard.

    Attributes
    ----------
    edge_indices:
        Sorted indices of all bundle edges into the input graph's edge
        arrays (the input must be simple, e.g. a coalesced graph or a
        shard subgraph of one).
    component_edge_indices:
        Per-component index arrays in construction order.
    components_built:
        Number of spanner protocols actually executed (smaller than the
        requested ``t`` when the graph ran out of edges first).
    cost:
        Sequentially-composed rounds/messages across the components.
    completed:
        True when every component's protocol terminated within its round
        limit.
    """

    edge_indices: np.ndarray
    component_edge_indices: List[np.ndarray]
    components_built: int
    cost: DistributedCost
    completed: bool


def distributed_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    component_seeds: Optional[List[RandomState]] = None,
) -> DistributedBundleResult:
    """Build a t-bundle by iterating the distributed Baswana–Sen protocol.

    This is the per-shard unit of work of the distributed sparsifier:
    component ``i`` runs the protocol on the graph with components
    ``1..i-1`` peeled off, exactly as in the sequential bundle
    construction, but with every round/message measured by the simulator.
    The caller typically pre-splits ``component_seeds`` (one RNG stream
    per component) before dispatching shards onto an execution backend so
    the result is independent of where the work runs.

    Parameters
    ----------
    graph:
        Simple input graph (one edge per endpoint pair); shard subgraphs
        of a coalesced graph qualify, and parallel edges raise
        :class:`GraphError`.  ``edge_indices`` refer to this graph's edge
        arrays.
    t:
        Number of bundle components requested.
    k:
        Baswana–Sen parameter per component (default ``ceil(log2 n)``).
    seed / component_seeds:
        Either a single seed (split into ``t`` sub-streams here) or the
        pre-split per-component streams; ``component_seeds`` wins.
    """
    return _peel_bundle(graph, t, k, seed, component_seeds, distributed_baswana_sen_spanner)


def _peel_bundle(
    graph: Graph,
    t: int,
    k: Optional[int],
    seed: SeedLike,
    component_seeds: Optional[List[RandomState]],
    spanner: Callable[..., DistributedSpannerResult],
) -> DistributedBundleResult:
    """The peel loop of :func:`distributed_bundle_spanner`, over any protocol runner.

    ``spanner(graph, k=..., seed=...)`` runs one component's protocol;
    the reference module passes its per-node runner here so both engines
    peel through the very same loop.
    """
    if t < 1:
        raise GraphError(f"bundle size t must be >= 1, got {t}")
    # Components are matched back to ``graph`` by edge key, so two edges
    # on one endpoint pair would both be taken.  Pipeline inputs arrive
    # key-sorted: one strict-increase pass accepts them without a sort.
    keys = graph.edge_keys()
    if not np.all(keys[1:] > keys[:-1]):
        keys = np.sort(keys)
        if np.any(keys[1:] == keys[:-1]):
            raise GraphError(
                "distributed bundle needs a simple graph, but some endpoint pair has "
                "parallel edges; merge them with graph.coalesce() first"
            )
    if component_seeds is None:
        component_seeds = split_rng(as_rng(seed), t)
    if len(component_seeds) < t:
        raise GraphError(
            f"need {t} component seeds, got {len(component_seeds)}"
        )

    # Indices of the input edges no component has taken yet; each round
    # builds its protocol input once through the trusted ``select_edges``.
    remaining = np.arange(graph.num_edges, dtype=np.int64)
    component_indices: List[np.ndarray] = []
    total_cost = DistributedCost()
    components_built = 0
    completed = True

    for i in range(t):
        if remaining.size == 0:
            break
        sub = graph.select_edges(remaining)
        result = spanner(sub, k=k, seed=component_seeds[i])
        total_cost = total_cost + result.cost
        completed = completed and result.completed
        components_built += 1
        # ``result.edge_indices`` refer to ``result.simple_graph`` (the
        # coalesced, key-sorted view the protocol ran on), which need not
        # share ``sub``'s edge order — translate through edge keys.
        selected_keys = result.simple_graph.edge_keys()[result.edge_indices]
        in_spanner = _sorted_membership(selected_keys, sub.edge_keys())
        component_indices.append(remaining[in_spanner])
        remaining = remaining[~in_spanner]

    if component_indices:
        edge_indices = np.unique(np.concatenate(component_indices))
    else:
        edge_indices = np.array([], dtype=np.int64)

    return DistributedBundleResult(
        edge_indices=edge_indices,
        component_edge_indices=component_indices,
        components_built=components_built,
        cost=total_cost,
        completed=completed,
    )
