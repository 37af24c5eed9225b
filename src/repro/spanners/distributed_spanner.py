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
does, on one network: the first component runs on the network of the
key-sorted input, and each later one on the previous network restricted
to the edges no component has taken (:meth:`ColumnarSimulator.restrict`,
one compress with no neighbour sort).  The program marks the edges it
chooses by id, so no component builds a graph or matches edges by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.parallel.congest import ColumnarSimulationResult, ColumnarSimulator
from repro.parallel.metrics import DistributedCost
from repro.spanners.baswana_sen import _check_size
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


def _spanner_k(k: Optional[int], num_vertices: int) -> int:
    """``k`` checked to be an integer ``>= 1``, or ``ceil(log2 n)`` when omitted."""
    if k is None:
        return max(1, int(np.ceil(np.log2(max(num_vertices, 2)))))
    return _check_size(k, "spanner parameter k")


def _protocol_inputs(
    graph: Graph, k: Optional[int], max_rounds: Optional[int]
) -> Tuple[Graph, int, int]:
    """``(coalesced graph, k, round cap)`` for one protocol run."""
    if max_rounds is not None:
        max_rounds = _check_size(max_rounds, "max_rounds")
    simple = graph.coalesce()
    k = _spanner_k(k, simple.num_vertices)
    return simple, k, max_rounds or (len(build_schedule(k)) + 4)


def _spanner_result(
    simple: Graph, k: int, edge_indices: np.ndarray, cost: DistributedCost, completed: bool
) -> DistributedSpannerResult:
    """Wrap the sorted indices of the edges the protocol chose in ``simple``."""
    return DistributedSpannerResult(
        spanner=simple.select_edges(edge_indices),
        edge_indices=edge_indices,
        simple_graph=simple,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=cost,
        completed=completed,
    )


def _run_protocol(net: ColumnarSimulator, k: int, max_rounds: int) -> ColumnarSimulationResult:
    """One protocol run on ``net``; ``outputs`` are the sorted ids of the chosen edges."""
    return net.run(ColumnarBaswanaSenProgram(net.num_vertices, k), max_rounds=max_rounds)


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
        Number of clustering levels, an integer ``>= 1``
        (:class:`GraphError` otherwise); defaults to ``ceil(log2 n)``.
    seed:
        Simulator seed (drives every node's private RNG stream).
    max_rounds:
        Safety cap on rounds, an integer of at least 1 (:class:`GraphError`
        otherwise); defaults to a generous multiple of the schedule length.
    """
    simple, k, cap = _protocol_inputs(graph, k, max_rounds)
    run = _run_protocol(ColumnarSimulator(simple, seed=seed), k, cap)
    return _spanner_result(simple, k, run.outputs, run.cost, run.completed)


@dataclass
class DistributedBundleResult:
    """Outcome of peeling ``t`` distributed spanners off one graph.

    Attributes
    ----------
    edge_indices:
        Sorted indices of all bundle edges into the input graph's edge
        arrays (the input must be simple, e.g. a coalesced graph).
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


def _key_order(graph: Graph) -> Optional[np.ndarray]:
    """The permutation that key-sorts ``graph``'s edges, or ``None`` if they are.

    Raises :class:`GraphError` when two edges share an endpoint pair: the
    protocol identifies edges by endpoint pairs, so a bundle would take
    both.  Pipeline inputs arrive key-sorted: one strict-increase pass
    accepts them without a sort.
    """
    keys = graph.edge_keys()
    if np.all(keys[1:] > keys[:-1]):
        return None
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise GraphError(
            "distributed bundle needs a simple graph, but some endpoint pair has "
            "parallel edges; merge them with graph.coalesce() first"
        )
    return order


def distributed_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    component_seeds: Optional[List[RandomState]] = None,
) -> DistributedBundleResult:
    """Build a t-bundle by iterating the distributed Baswana–Sen protocol.

    This is the bundle step of the distributed sparsifier's round:
    component ``i`` runs the protocol on the graph with components
    ``1..i-1`` peeled off, exactly as in the sequential bundle
    construction, but with every round/message measured by the simulator.
    The round pre-splits ``component_seeds`` (one RNG stream per
    component) from its own stream, ahead of its coin stream.

    Parameters
    ----------
    graph:
        Simple input graph (one edge per endpoint pair); a coalesced
        graph qualifies, and parallel edges raise
        :class:`GraphError`.  ``edge_indices`` refer to this graph's edge
        arrays.
    t:
        Number of bundle components requested, an integer ``>= 1``.
    k:
        Baswana–Sen parameter per component (default ``ceil(log2 n)``).
    seed / component_seeds:
        Either a single seed (split into ``t`` sub-streams here) or the
        pre-split per-component streams; ``component_seeds`` wins.
    """
    t = _check_size(t, "bundle size t")
    k = _spanner_k(k, graph.num_vertices)
    order = _key_order(graph)
    if component_seeds is None:
        component_seeds = split_rng(as_rng(seed), t)
    if len(component_seeds) < t:
        raise GraphError(
            f"need {t} component seeds, got {len(component_seeds)}"
        )

    # One network for the whole bundle, on the key-sorted edges (the order
    # the protocol's tie-breaks are defined on).  Each later component runs
    # on the previous network restricted to the edges still remaining.
    simple = graph if order is None else graph.select_edges(order)
    cap = len(build_schedule(k)) + 4
    remaining = np.ones(simple.num_edges, dtype=bool)
    left = simple.num_edges
    net: Optional[ColumnarSimulator] = None
    component_indices: List[np.ndarray] = []
    total_cost = DistributedCost()
    completed = True

    for i in range(t):
        if left == 0:
            break
        if net is None:
            net = ColumnarSimulator(simple, seed=component_seeds[i])
        else:
            net = net.restrict(remaining, seed=component_seeds[i])
        run = _run_protocol(net, k, cap)
        total_cost = total_cost + run.cost
        completed = completed and run.completed
        chosen = run.outputs
        remaining[chosen] = False
        left -= chosen.size
        component_indices.append(chosen if order is None else np.sort(order[chosen]))

    edge_indices = np.flatnonzero(~remaining)
    if order is not None:
        edge_indices = np.sort(order[edge_indices])

    return DistributedBundleResult(
        edge_indices=edge_indices,
        component_edge_indices=component_indices,
        components_built=len(component_indices),
        cost=total_cost,
        completed=completed,
    )
