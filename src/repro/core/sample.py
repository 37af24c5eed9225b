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
bundle and draw the coins.  It runs inline on the whole graph, consuming
the caller's generator and charging the caller's tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.config import MIN_EDGES_TO_SPARSIFY, SparsifierConfig
from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.resistance.stretch import spanner_stretch_bound
from repro.spanners.bundle import t_bundle_spanner
from repro.spanners.low_stretch_tree import tree_bundle
from repro.spanners.verification import repair_spanner
from repro.utils.rng import RandomState, SeedLike, as_rng

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
    The PRAM and distributed pipelines both build their sparsifier
    through this one function so the reweighting rule cannot drift
    between them.
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


def _bundle_and_sample(
    graph: Graph,
    t: int,
    config: SparsifierConfig,
    rng: RandomState,
    tracker: PRAMTracker,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One ``PARALLELSAMPLE`` round on ``graph``: Step 1, then the Bernoulli step.

    Builds the ``t``-bundle (spanner or tree components, repaired against
    the per-component stretch target under ``config.certify_stretch``)
    from ``rng``, then samples the edges outside it from the same ``rng``.
    Returns the bundle and kept positions in ``graph``'s edge order and
    the number of candidates outside the bundle; the Bernoulli pass is
    charged only when there was something to sample.
    """
    if config.use_tree_bundle:
        bundle = tree_bundle(graph, t=t, seed=rng, tracker=tracker)
    else:
        bundle = t_bundle_spanner(graph, t=t, k=config.spanner_k, seed=rng, tracker=tracker)
    bundle_indices = bundle.edge_indices
    if config.certify_stretch and bundle.component_edge_indices:
        # Repair the *union* against the per-component stretch target so the
        # Lemma 1 certificate holds deterministically: any edge whose stretch
        # over the full bundle exceeds the single-spanner target joins the
        # bundle outright.
        bundle_indices = repair_spanner(graph, bundle_indices, spanner_stretch_bound(graph.num_vertices))
    kept, outside = sample_nonbundle_edges(
        graph.num_edges, bundle_indices, rng, config.sampling_probability
    )
    if outside:
        tracker.charge_parallel_for(outside, label="sample/bernoulli")
    return bundle_indices, kept, outside


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
    if m <= MIN_EDGES_TO_SPARSIFY:
        # Below the applicability threshold: the input comes back unchanged.
        t, outside = 0, 0
        bundle_indices, kept = np.array([], dtype=np.int64), np.arange(m, dtype=np.int64)
    else:
        t = config.bundle_size(graph.num_vertices, eps)
        bundle_indices, kept, outside = _bundle_and_sample(graph, t, config, rng, tracker)
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
