"""Algorithm 1: ``PARALLELSAMPLE``.

    Input: graph G, parameter epsilon
    1. Compute a (24 log^2 n / eps^2)-bundle spanner H for G
    2. G~ := H
    3. For each edge e not in H, with probability 1/4 add e to G~ with weight 4 w_e
    4. Return G~

Theorem 4: with probability ``1 - 1/n^2`` the output satisfies
``(1 - eps) G ⪯ G~ ⪯ (1 + eps) G`` and has at most
``O(n log^3 n / eps^2) + m/2`` edges in expectation.  The proof applies the
matrix Chernoff bound (Theorem 3) to the edge indicators ``Y_e`` (scaled
edge Laplacians) plus slices of the bundle; the bundle guarantees each
``Y_e ⪯ (eps^2 / 6 log n) G`` via Corollary 1.

The implementation below is the vectorised sequential execution of the
parallel algorithm; the PRAM cost of each step is charged to the tracker
(Corollary 2 + an O(m) sampling pass), and the distributed execution lives
in :mod:`repro.core.distributed_sparsify`.

Algorithm 1 is one round function, :func:`_bundle_and_sample`: build the
bundle and draw the coins.  With ``config.num_shards == 1`` it runs inline
on the whole graph, consuming the caller's generator and charging the
caller's tracker.  With ``config.num_shards > 1`` the graph is decomposed
into vertex-range shards (:mod:`repro.graphs.sharding`) and the same
function runs once per shard as a job on the configured execution backend
(:mod:`repro.parallel.backends`); cross-shard boundary edges join the
bundle outright.  RNG sub-streams are split per shard before dispatch, so
a fixed seed gives bit-identical output on every backend and worker
count.  Shard costs combine with the PRAM fork/join rule (work adds,
depth is the max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.config import SparsifierConfig
from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.graphs.sharding import GraphShards, shard_edges
from repro.parallel.metrics import PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.spanners.bundle import t_bundle_spanner
from repro.spanners.low_stretch_tree import tree_bundle
from repro.spanners.verification import repair_spanner
from repro.utils.rng import RandomState, SeedLike, as_rng, split_rng

__all__ = ["SampleResult", "parallel_sample", "assemble_sample_output"]


def assemble_sample_output(
    graph: Graph,
    bundle_indices: np.ndarray,
    kept_outside: np.ndarray,
    weight_multiplier: float,
) -> Graph:
    """Steps 2–3 output assembly shared by every execution path.

    Bundle edges keep their original weight; sampled survivors are
    reweighted by ``1/p`` so the Laplacian is preserved in expectation.
    The sharded, unsharded, and distributed pipelines all build their
    sparsifier through this one function so the reweighting rule cannot
    drift between them.
    """
    new_u = np.concatenate([graph.edge_u[bundle_indices], graph.edge_u[kept_outside]])
    new_v = np.concatenate([graph.edge_v[bundle_indices], graph.edge_v[kept_outside]])
    new_w = np.concatenate(
        [
            graph.edge_weights[bundle_indices],
            graph.edge_weights[kept_outside] * weight_multiplier,
        ]
    )
    return Graph(graph.num_vertices, new_u, new_v, new_w)


def sample_nonbundle_edges(
    num_edges: int, bundle: np.ndarray, rng: RandomState, p: float
) -> Tuple[np.ndarray, int]:
    """Step 3, the Bernoulli step: keep each edge outside ``bundle`` with probability ``p``.

    ``bundle`` lists positions among ``num_edges`` edges.  Returns the
    kept positions (ascending) and the number of candidates outside the
    bundle (for the degenerate check and the distributed message count).
    When the bundle holds every edge no coin is drawn, so ``rng`` is left
    untouched.  The one coin-flipping rule of the PRAM and distributed
    rounds and of the streaming compaction.
    """
    in_bundle = np.zeros(num_edges, dtype=bool)
    in_bundle[bundle] = True
    outside = np.flatnonzero(~in_bundle)
    if outside.size == 0:
        return outside, 0
    keep_mask = rng.random(outside.size) < p
    return outside[keep_mask], int(outside.size)


def merge_shard_samples(
    results: list, boundary_edge_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Combine per-shard worker results into global index arrays.

    The bundle is the union of every shard's picks plus all cross-shard
    boundary edges; the sampled survivors are sorted into a canonical
    order so the output is independent of shard execution order.  Shared
    by the PRAM and distributed sharded drivers.
    """
    bundle_parts = [r["bundle"] for r in results] + [boundary_edge_indices]
    bundle_indices = np.unique(np.concatenate(bundle_parts))
    kept_outside = np.sort(
        np.concatenate([r["kept"] for r in results] + [np.array([], dtype=np.int64)])
    )
    total_outside = sum(r["outside"] for r in results)
    return bundle_indices, kept_outside, total_outside


@dataclass
class SampleResult:
    """Output of one ``PARALLELSAMPLE`` invocation.

    Attributes
    ----------
    sparsifier:
        The output graph ``G~`` (bundle edges at original weight plus the
        surviving non-bundle edges at ``weight_multiplier`` times their
        original weight).
    bundle_edge_indices / sampled_edge_indices:
        Indices (into the input graph) of the edges kept via the bundle
        and via sampling respectively.
    epsilon:
        The epsilon this invocation targeted.
    t:
        Bundle size used.
    input_edges / output_edges:
        Edge counts before and after.
    degenerate:
        True when the bundle absorbed the whole graph so no sampling
        happened (the "threshold of applicability" case) — the output then
        equals the input.
    cost:
        PRAM work/depth charged for the bundle construction and the
        sampling pass.
    """

    sparsifier: Graph
    bundle_edge_indices: np.ndarray
    sampled_edge_indices: np.ndarray
    epsilon: float
    t: int
    input_edges: int
    output_edges: int
    degenerate: bool
    cost: PRAMCost = field(default_factory=PRAMCost)

    @property
    def reduction_ratio(self) -> float:
        """Output edges divided by input edges (1.0 when degenerate)."""
        if self.input_edges == 0:
            return 1.0
        return self.output_edges / self.input_edges


def _bundle_and_sample(
    graph: Graph,
    t: int,
    config: SparsifierConfig,
    bundle_rng: RandomState,
    sample_rng: RandomState,
    tracker: PRAMTracker,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One ``PARALLELSAMPLE`` round on ``graph``: Step 1, then the Bernoulli step.

    ``graph`` is the whole input or one shard's subgraph.  Builds
    the ``t``-bundle (spanner or tree components, repaired against the
    per-component stretch target under ``config.certify_stretch``) from
    ``bundle_rng``, then samples the edges outside it from
    ``sample_rng``.  Returns the bundle and kept positions in ``graph``'s
    edge order and the number of candidates outside the bundle; the
    Bernoulli pass is charged only when there was something to sample.
    """
    if config.use_tree_bundle:
        bundle = tree_bundle(graph, t=t, seed=bundle_rng, tracker=tracker)
    else:
        bundle = t_bundle_spanner(graph, t=t, k=config.spanner_k, seed=bundle_rng, tracker=tracker)
    bundle_indices = bundle.edge_indices
    if config.certify_stretch and bundle.component_edge_indices:
        # Repair the *union* against the per-component stretch target so the
        # Lemma 1 certificate holds deterministically: any edge whose stretch
        # over the full bundle exceeds the single-spanner target joins the
        # bundle outright.
        stretch_target = 2.0 * np.log2(max(graph.num_vertices, 2))
        bundle_indices = repair_spanner(graph, bundle_indices, stretch_target)
    kept, outside = sample_nonbundle_edges(
        graph.num_edges, bundle_indices, sample_rng, config.sampling_probability
    )
    if outside:
        tracker.charge_parallel_for(outside, label="sample/bernoulli")
    return bundle_indices, kept, outside


def _sample_shard(item: Tuple[int, RandomState, RandomState], shared: Dict[str, Any]) -> Dict[str, Any]:
    """:func:`_bundle_and_sample` on one shard's edges, as a backend job.

    Module-level (not a closure) so the process backend can pickle it; the
    graph and shard index arrays travel through ``shared`` once per
    worker.  Returns original-graph edge indices plus the shard's PRAM
    cost so the parent can fork/join-combine the shards.
    """
    shard_id, bundle_rng, sample_rng = item
    graph: Graph = shared["graph"]
    idx: np.ndarray = shared["shards"].shard_edge_indices[shard_id]
    if idx.size == 0:
        empty = np.array([], dtype=np.int64)
        return {"bundle": empty, "kept": empty, "outside": 0, "cost": PRAMCost()}
    tracker = PRAMTracker()
    bundle, kept, outside = _bundle_and_sample(
        graph.select_edges(idx), shared["t"], shared["config"], bundle_rng, sample_rng, tracker
    )
    if not outside:
        # A shard's fork/join branch spawns its Bernoulli loop even when
        # the loop is empty: one parallel step of depth.
        tracker.charge_parallel_for(0, label="sample/bernoulli")
    return {"bundle": idx[bundle], "kept": idx[kept], "outside": outside, "cost": tracker.total}


def _sample_shards(
    graph: Graph,
    t: int,
    config: SparsifierConfig,
    rng: RandomState,
    tracker: PRAMTracker,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Fan :func:`_sample_shard` out over the backend and merge the shards."""
    shards: GraphShards = shard_edges(graph, config.num_shards)
    # Two streams per shard (bundle + sampling), split before dispatch so
    # scheduling order / backend / worker count cannot change the output.
    streams = split_rng(rng, 2 * shards.num_shards)
    items = [(s, streams[2 * s], streams[2 * s + 1]) for s in range(shards.num_shards)]
    shared = {"graph": graph, "config": config, "t": t, "shards": shards}
    results = config.execution_backend().map(_sample_shard, items, shared=shared)

    # Shards execute concurrently: PRAM fork/join (work adds, depth max).
    with tracker.parallel_region():
        for r in results:
            tracker.charge(r["cost"].work, r["cost"].depth, label="sample/shard")
    return merge_shard_samples(results, shards.boundary_edge_indices)


def parallel_sample(
    graph: Graph,
    epsilon: Optional[float] = None,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> SampleResult:
    """Run Algorithm 1 (``PARALLELSAMPLE``) on ``graph``.

    Parameters
    ----------
    graph:
        Input weighted graph.
    epsilon:
        Spectral parameter for this invocation; defaults to
        ``config.epsilon``.
    config:
        :class:`SparsifierConfig`; defaults to the practical configuration.
        With ``config.num_shards > 1`` the bundle/sampling work is sharded
        and dispatched through ``config``'s execution backend (see the
        module docstring).
    seed:
        RNG seed (bundle construction and the Bernoulli sampling).
    tracker:
        Optional shared PRAM tracker.

    Returns
    -------
    SampleResult
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not 0 < eps <= 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {eps}")
    tracker = tracker if tracker is not None else PRAMTracker()
    rng = as_rng(seed)

    m = graph.num_edges
    sparsifier = graph
    if m <= config.min_edges_to_sparsify:
        # Below the applicability threshold: the input comes back unchanged.
        t, outside = 0, 0
        bundle_indices, kept = np.array([], dtype=np.int64), np.arange(m, dtype=np.int64)
    else:
        t = config.bundle_size(graph.num_vertices, eps)
        if config.num_shards == 1:
            bundle_indices, kept, outside = _bundle_and_sample(graph, t, config, rng, rng, tracker)
        else:
            bundle_indices, kept, outside = _sample_shards(graph, t, config, rng, tracker)
        # outside == 0: the bundle swallowed every edge (theory-mode constants
        # on a small graph, or a graph sparser than the bundle target).
        if outside:
            sparsifier = assemble_sample_output(
                graph, bundle_indices, kept, config.weight_multiplier
            )
            tracker.charge_parallel_for(sparsifier.num_edges, label="sample/assemble-output")

    return SampleResult(
        sparsifier=sparsifier,
        bundle_edge_indices=bundle_indices,
        sampled_edge_indices=kept,
        epsilon=eps,
        t=t,
        input_edges=m,
        output_edges=sparsifier.num_edges,
        degenerate=not outside,
        cost=tracker.total,
    )
