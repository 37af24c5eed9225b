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

Shard-parallel execution
------------------------
With ``config.num_shards > 1`` the graph is decomposed into vertex-range
shards (:mod:`repro.graphs.sharding`); each shard runs the full bundle
peeling *and* its sampling pass as an independent simulated network, and
those per-shard jobs are dispatched through the configured execution
backend (:mod:`repro.parallel.backends`).  Cross-shard boundary edges are
kept in the bundle outright — they are the inter-machine backbone, and
keeping an edge exactly never weakens the spectral certificate.  Shard
networks run concurrently, so their costs combine with max-rounds /
sum-messages semantics (``DistributedCost.alongside``).  RNG sub-streams
are split per shard *before* dispatch, making the output bit-identical on
every backend and worker count for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SparsifierConfig
from repro.core.sample import (
    assemble_sample_output,
    merge_shard_samples,
    sample_nonbundle_edges,
)
from repro.exceptions import BackendError, SparsificationError
from repro.graphs.graph import Graph
from repro.graphs.sharding import GraphShards, shard_edges
from repro.parallel.failure import FailurePolicy
from repro.parallel.metrics import DistributedCost, combine_concurrent
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
    num_shards: int = 1
    boundary_edges: int = 0


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


def _shard_sample_worker(item: Tuple[int, List[RandomState], RandomState], shared: Dict[str, Any]) -> Dict[str, Any]:
    """Bundle peeling + Bernoulli sampling on one shard's simulated network.

    Module-level (not a closure) so the process backend can pickle it; the
    bulky payload — the coalesced graph and the per-shard edge index
    arrays — arrives through ``shared`` and is transmitted once per
    worker.
    """
    shard_id, component_seeds, sample_rng = item
    simple: Graph = shared["graph"]
    config: SparsifierConfig = shared["config"]
    t: int = shared["t"]
    idx: np.ndarray = shared["shards"].shard_edge_indices[shard_id]
    empty = np.array([], dtype=np.int64)
    if idx.size == 0:
        return {
            "bundle": empty,
            "kept": empty,
            "outside": 0,
            "cost": DistributedCost(),
            "components": 0,
        }
    sub = simple.select_edges(idx)
    bundle: DistributedBundleResult = distributed_bundle_spanner(
        sub,
        t=t,
        k=config.spanner_k,
        component_seeds=component_seeds,
    )
    kept, outside = sample_nonbundle_edges(
        idx, bundle.edge_indices, sample_rng, config.sampling_probability
    )
    return {
        "bundle": idx[bundle.edge_indices],
        "kept": kept,
        "outside": outside,
        "cost": bundle.cost,
        "components": bundle.components_built,
    }


def _sharded_distributed_sample(
    simple: Graph,
    eps: float,
    t: int,
    config: SparsifierConfig,
    rng: RandomState,
    failure_policy: Optional[FailurePolicy] = None,
) -> DistributedSampleResult:
    """Shard-parallel ``PARALLELSAMPLE`` on the distributed simulator."""
    m = simple.num_edges
    shards: GraphShards = shard_edges(simple, config.num_shards)
    backend = config.execution_backend()

    # One RNG stream per shard, split *before* dispatch; each shard stream
    # then yields its t component streams plus the sampling stream, so the
    # outcome does not depend on scheduling order, backend, or workers.
    shard_streams = split_rng(rng, shards.num_shards)
    items = []
    for s in range(shards.num_shards):
        streams = split_rng(shard_streams[s], t + 1)
        items.append((s, streams[:t], streams[t]))
    shared = {"graph": simple, "config": config, "t": t, "shards": shards}
    # Every shard's output is required to assemble the round, so a policy
    # may retry a crashed shard (output-neutral: the shard re-runs with its
    # pre-split stream) but never skip one — "collect" would silently drop
    # a shard's edges from the sparsifier.
    if failure_policy is not None and failure_policy.on_error == "collect":
        raise BackendError(
            "distributed sharding cannot run with on_error='collect': every "
            "shard's output is required; use on_error='retry' (or 'raise')"
        )
    results = backend.map(_shard_sample_worker, items, shared=shared, policy=failure_policy)

    bundle_indices, kept_outside, total_outside = merge_shard_samples(
        results, shards.boundary_edge_indices
    )
    components_built = max((r["components"] for r in results), default=0)

    # Shard networks run concurrently: rounds max, messages add.  The
    # sampling coin-flips happen inside the shards in the same single
    # synchronous round, one one-word message per surviving edge.
    total_cost = combine_concurrent(r["cost"] for r in results)
    if total_outside:
        total_cost = total_cost + DistributedCost(
            rounds=1, messages=int(total_outside), max_message_words=1
        )

    if total_outside == 0:
        return DistributedSampleResult(
            sparsifier=simple,
            bundle_edge_indices=bundle_indices,
            sampled_edge_indices=np.array([], dtype=np.int64),
            t=t,
            epsilon=eps,
            input_edges=m,
            output_edges=m,
            degenerate=True,
            cost=total_cost,
            components_built=components_built,
            num_shards=shards.num_shards,
            boundary_edges=shards.num_boundary_edges,
        )

    sparsifier = assemble_sample_output(simple, bundle_indices, kept_outside, config.weight_multiplier)
    return DistributedSampleResult(
        sparsifier=sparsifier,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept_outside,
        t=t,
        epsilon=eps,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=False,
        cost=total_cost,
        components_built=components_built,
        num_shards=shards.num_shards,
        boundary_edges=shards.num_boundary_edges,
    )


def distributed_parallel_sample(
    graph: Graph,
    epsilon: Optional[float] = None,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> DistributedSampleResult:
    """Distributed Algorithm 1 on the synchronous simulator.

    The input is coalesced (the distributed protocol identifies edges by
    endpoint pairs).  Returns the sparsifier plus the summed
    rounds/messages/max-message-size across all bundle components and the
    sampling round.  With ``config.num_shards > 1`` the per-shard work is
    fanned out through ``config``'s execution backend (see the module
    docstring); the default single-shard path preserves the historical
    RNG stream exactly.

    ``failure_policy`` governs transient shard-worker crashes in the
    sharded fan-out: ``on_error="retry"`` re-runs a crashed shard with its
    pre-split RNG stream (bit-identical output); ``"collect"`` is rejected
    because a round cannot be assembled with a shard missing.
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not 0 < eps <= 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {eps}")
    rng = as_rng(seed)

    simple = graph.coalesce()
    n = simple.num_vertices
    m = simple.num_edges
    t = config.bundle_size(n, eps)

    if m <= config.min_edges_to_sparsify:
        return DistributedSampleResult(
            sparsifier=simple,
            bundle_edge_indices=np.array([], dtype=np.int64),
            sampled_edge_indices=np.arange(m, dtype=np.int64),
            t=0,
            epsilon=eps,
            input_edges=m,
            output_edges=m,
            degenerate=True,
        )

    if config.num_shards > 1:
        return _sharded_distributed_sample(
            simple, eps, t, config, rng, failure_policy=failure_policy
        )

    component_seeds = split_rng(rng, t + 1)
    bundle = distributed_bundle_spanner(
        simple,
        t=t,
        k=config.spanner_k,
        component_seeds=component_seeds[:t],
    )
    bundle_indices = bundle.edge_indices
    total_cost = bundle.cost

    in_bundle = np.zeros(m, dtype=bool)
    in_bundle[bundle_indices] = True
    outside = np.flatnonzero(~in_bundle)

    if outside.size == 0:
        return DistributedSampleResult(
            sparsifier=simple,
            bundle_edge_indices=bundle_indices,
            sampled_edge_indices=np.array([], dtype=np.int64),
            t=t,
            epsilon=eps,
            input_edges=m,
            output_edges=m,
            degenerate=True,
            cost=total_cost,
            components_built=bundle.components_built,
        )

    # Sampling round: the lower-id endpoint of every surviving edge draws the
    # coin and informs the other endpoint — one synchronous round, one
    # single-word message per non-bundle edge.
    sample_rng = component_seeds[t]
    keep_mask = sample_rng.random(outside.size) < config.sampling_probability
    kept_outside = outside[keep_mask]
    total_cost = total_cost + DistributedCost(
        rounds=1, messages=int(outside.size), max_message_words=1
    )

    sparsifier = assemble_sample_output(simple, bundle_indices, kept_outside, config.weight_multiplier)
    return DistributedSampleResult(
        sparsifier=sparsifier,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept_outside,
        t=t,
        epsilon=eps,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=False,
        cost=total_cost,
        components_built=bundle.components_built,
    )


def distributed_parallel_sparsify(
    graph: Graph,
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    stop_on_degenerate: bool = True,
    on_round: Optional[Callable[[int, DistributedSampleResult], None]] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> DistributedSparsifyResult:
    """Distributed Algorithm 2: iterate distributed ``PARALLELSAMPLE``.

    The rounds are inherently sequential (round ``i+1`` consumes round
    ``i``'s output); the parallelism lives inside each round's shard
    fan-out when ``config.num_shards > 1``.  ``failure_policy`` is passed
    to every round's shard fan-out (``"collect"`` rejected — see
    :func:`distributed_parallel_sample`).

    ``on_round`` is an optional progress callback invoked as
    ``on_round(round_index, result)`` (1-based index) the moment each
    round's :class:`DistributedSampleResult` is available — the telemetry
    hook the unified engine (:mod:`repro.api`) exposes for serving.  It
    never affects the output.
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if rho < 1:
        raise SparsificationError(f"rho must be >= 1, got {rho}")
    num_rounds = SparsifierConfig.num_rounds(rho)
    per_round_eps = eps / max(num_rounds, 1)
    rng = as_rng(seed)
    round_rngs = split_rng(rng, max(num_rounds, 1))

    current = graph.coalesce()
    input_edges = current.num_edges
    rounds: List[DistributedSampleResult] = []
    total = DistributedCost()
    stopped_early = False

    for i in range(num_rounds):
        result = distributed_parallel_sample(
            current, epsilon=per_round_eps, config=config, seed=round_rngs[i],
            failure_policy=failure_policy,
        )
        rounds.append(result)
        if on_round is not None:
            on_round(i + 1, result)
        total = total + result.cost
        current = result.sparsifier.coalesce()
        if result.degenerate and stop_on_degenerate:
            stopped_early = True
            break

    return DistributedSparsifyResult(
        sparsifier=current,
        rounds=rounds,
        epsilon=eps,
        rho=float(rho),
        input_edges=input_edges,
        output_edges=current.num_edges,
        cost=total,
        stopped_early=stopped_early,
    )
