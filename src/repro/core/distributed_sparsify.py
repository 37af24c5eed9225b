"""Distributed execution of ``PARALLELSAMPLE`` / ``PARALLELSPARSIFY``.

Theorems 4 and 5 also state distributed costs: ``PARALLELSAMPLE`` runs in
``O(log^4 n / eps^2)`` rounds with ``O(m log^3 n / eps^2)`` communication,
and ``PARALLELSPARSIFY`` multiplies both by ``log^3 rho`` factors.  This
module measures those quantities by actually executing the pipeline on the
synchronous simulator:

* each bundle component is built by the distributed Baswana–Sen protocol
  (:func:`repro.spanners.distributed_spanner.distributed_bundle_spanner`),
  whose rounds/messages the columnar round engine counts;
* the uniform sampling step is embarrassingly local — the lower-id endpoint
  of each surviving edge flips the coin and informs the other endpoint in
  a single round, which we account for explicitly.

Between bundle components the "remaining graph" shrinks exactly as in the
sequential construction (edges already in the bundle declare themselves
out, as the paper puts it), so the distributed and sequential pipelines
produce statistically identical outputs; tests check that equivalence on
fixed seeds at the level of the certified spectral quality.

One round function
------------------
:func:`_distributed_bundle_and_sample` is the whole distributed round:
it splits one stream into ``t`` component streams plus the coin stream,
peels the bundle on the graph's simulated network and flips the coins.
It runs inline on the coalesced input, on the caller's generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import MIN_EDGES_TO_SPARSIFY, SparsifierConfig
from repro.core.sample import assemble_sample_output, sample_nonbundle_edges
from repro.core.sparsify import sparsify_rounds
from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import DistributedCost
from repro.spanners.distributed_spanner import (
    DistributedBundleResult,
    distributed_bundle_spanner,
)
from repro.utils.rng import RandomState, SeedLike, as_rng, split_rng

__all__ = [
    "DistributedSampleResult",
    "DistributedSparsifyResult",
    "distributed_parallel_sample",
    "distributed_parallel_sparsify",
]


@dataclass
class DistributedSampleResult:
    """One distributed ``PARALLELSAMPLE`` round with measured network cost."""

    sparsifier: Graph
    bundle_edge_indices: np.ndarray
    sampled_edge_indices: np.ndarray
    t: int
    epsilon: float
    input_edges: int
    output_edges: int
    degenerate: bool
    cost: DistributedCost = field(default_factory=DistributedCost)
    components_built: int = 0


@dataclass
class DistributedSparsifyResult:
    """Distributed ``PARALLELSPARSIFY``: per-round results plus total cost."""

    sparsifier: Graph
    rounds: List[DistributedSampleResult]
    epsilon: float
    rho: float
    input_edges: int
    output_edges: int
    cost: DistributedCost = field(default_factory=DistributedCost)
    stopped_early: bool = False


def _distributed_bundle_and_sample(
    graph: Graph, t: int, config: SparsifierConfig, stream: RandomState
) -> Tuple[DistributedBundleResult, np.ndarray, int]:
    """One distributed ``PARALLELSAMPLE`` round on ``graph``'s network.

    ``stream`` splits into ``t`` bundle-component streams plus the coin
    stream.  Returns the bundle (its edges, measured network cost and
    components built), the kept positions in ``graph``'s edge order and
    the number of candidates outside the bundle.
    """
    streams = split_rng(stream, t + 1)
    bundle = distributed_bundle_spanner(
        graph, t=t, k=config.spanner_k, component_seeds=streams[:t]
    )
    kept, outside = sample_nonbundle_edges(
        graph.num_edges, bundle.edge_indices, streams[t], config.sampling_probability
    )
    return bundle, kept, outside


def distributed_parallel_sample(
    graph: Graph,
    epsilon: Optional[float] = None,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
) -> DistributedSampleResult:
    """Distributed Algorithm 1 on the synchronous simulator.

    The input is coalesced (the distributed protocol identifies edges by
    endpoint pairs).  Returns the sparsifier plus the summed
    rounds/messages/max-message-size across all bundle components and the
    sampling round.  The round runs inline on ``seed``'s generator.
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not 0 < eps <= 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {eps}")
    rng = as_rng(seed)

    simple = graph.coalesce()
    m = simple.num_edges
    sparsifier, cost, components = simple, DistributedCost(), 0
    if m <= MIN_EDGES_TO_SPARSIFY:
        t, outside = 0, 0
        bundle_indices, kept = np.array([], dtype=np.int64), np.arange(m, dtype=np.int64)
    else:
        t = config.bundle_size(simple.num_vertices, eps)
        bundle, kept, outside = _distributed_bundle_and_sample(simple, t, config, rng)
        bundle_indices, cost, components = bundle.edge_indices, bundle.cost, bundle.components_built
        if outside:
            # Sampling round: the lower-id endpoint of every surviving edge
            # draws the coin and informs the other endpoint — one synchronous
            # round, one single-word message per non-bundle edge.
            cost = cost + DistributedCost(rounds=1, messages=int(outside), max_message_words=1)
            sparsifier = assemble_sample_output(simple, bundle_indices, kept, config.weight_multiplier)

    return DistributedSampleResult(
        sparsifier=sparsifier,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept,
        t=t,
        epsilon=eps,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=not outside,
        cost=cost,
        components_built=components,
    )


def distributed_parallel_sparsify(
    graph: Graph,
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    on_round: Optional[Callable[[int, DistributedSampleResult], None]] = None,
) -> DistributedSparsifyResult:
    """Distributed Algorithm 2: iterate distributed ``PARALLELSAMPLE``.

    Runs the same loop as :func:`repro.core.sparsify.parallel_sparsify`
    (:func:`repro.core.sparsify.sparsify_rounds`) on the coalesced input.
    The rounds are inherently sequential (round ``i+1`` consumes round
    ``i``'s output); the parallelism lives inside each round's simulated
    network, whose nodes act concurrently within a synchronous round.

    ``on_round`` is an optional progress callback invoked as
    ``on_round(round_index, result)`` (1-based index) the moment each
    round's :class:`DistributedSampleResult` is available — the telemetry
    hook the unified engine (:mod:`repro.api`) exposes for serving.  It
    never affects the output.
    """

    rounds: List[DistributedSampleResult] = []

    def sample_round(round_index, current, round_eps, round_config, rng):
        result = distributed_parallel_sample(current, epsilon=round_eps, config=round_config, seed=rng)
        rounds.append(result)
        if on_round is not None:
            on_round(round_index, result)
        return result

    simple = graph.coalesce()
    eps, final, stopped_early = sparsify_rounds(simple, epsilon, rho, config, seed, sample_round)
    return DistributedSparsifyResult(
        sparsifier=final,
        rounds=rounds,
        epsilon=eps,
        rho=float(rho),
        input_edges=simple.num_edges,
        output_edges=final.num_edges,
        cost=sum((r.cost for r in rounds), DistributedCost()),
        stopped_early=stopped_early,
    )
