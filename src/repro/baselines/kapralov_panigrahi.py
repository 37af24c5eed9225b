"""Kapralov–Panigrahi-style spanner oversampling baseline [7].

The Kapralov–Panigrahi sparsifier also uses spanners, but differently:
a *single* sequence of ``O(log n)`` spanners certifies per-edge "robust
connectivity" upper bounds on the effective resistances which hold *on
average*; the edges are then importance-sampled against those (loose)
upper bounds, and the oversampling lemma of [15] compensates for the
looseness.  The cost of compensating is the ``O(n log^4 n / eps^4)``
sparsifier size — a ``1/eps^4`` dependence versus this paper's
``1/eps^2`` — and the construction does not parallelise because of the
Thorup–Zwick distance oracles it relies on (Remark 4).

This module implements a faithful *re-interpretation* rather than a
line-by-line port (the original is itself an analysis framework more than
pseudo-code):

1. build ``ceil(log2 n)`` nested spanners ``H_1, ..., H_L`` (each of the
   remaining graph, as in a bundle);
2. for every edge, certify the resistance upper bound
   ``r̂_e = min_i st_{H_i}(e) / w_e`` (the best spanner path it has), with
   ``r̂_e = 1 / w_e`` for edges inside some spanner (their trivial path);
3. sample ``q = O(n log^2 n / eps^4)`` edges with probabilities
   proportional to ``w_e * r̂_e`` (oversampled leverage upper bounds), with
   the usual ``w_e / (q p_e)`` reweighting.

The benchmark E8 sweeps epsilon for this baseline and for
``PARALLELSPARSIFY`` to exhibit the ``1/eps^4`` vs ``1/eps^2`` scaling gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.resistance.stretch import stretch_over_subgraph
from repro.spanners.bundle import t_bundle_spanner
from repro.utils.rng import SeedLike, as_rng

__all__ = ["KPResult", "kapralov_panigrahi_sparsify", "kp_sample_count"]


@dataclass
class KPResult:
    """Output of the Kapralov–Panigrahi-style sampler.

    Carries ``sparsifier``, ``input_edges`` and ``output_edges``, the
    fields :class:`~repro.api.result.UnifiedResult` is built from; the
    reduction is ``UnifiedResult.reduction_factor``.
    """

    sparsifier: Graph
    num_samples: int
    epsilon: float
    resistance_upper_bounds: np.ndarray
    num_spanners: int
    input_edges: int = 0

    @property
    def output_edges(self) -> int:
        """Distinct edges kept (sampling draws with replacement, copies merge)."""
        return self.sparsifier.num_edges


def kp_sample_count(num_vertices: int, epsilon: float, constant: float = 2.0) -> int:
    """Sample count ``q = constant * n * log2(n)^2 / eps^4``.

    The ``1/eps^4`` dependence is the structural property Remark 4 points
    at; the ``log`` powers and the constant are scaled to laptop sizes the
    same way the other samplers' constants are.
    """
    if epsilon <= 0:
        raise SparsificationError("epsilon must be positive")
    n = max(num_vertices, 2)
    log_n = np.log2(n)
    return max(1, int(np.ceil(constant * n * log_n * log_n / (epsilon ** 4))))


def kapralov_panigrahi_sparsify(
    graph: Graph,
    epsilon: float = 0.5,
    num_samples: Optional[int] = None,
    num_spanners: Optional[int] = None,
    seed: SeedLike = None,
    sample_constant: float = 2.0,
) -> KPResult:
    """Sparsify by oversampling against spanner-certified resistance bounds."""
    if graph.num_edges == 0:
        return KPResult(
            sparsifier=graph,
            num_samples=0,
            epsilon=epsilon,
            resistance_upper_bounds=np.zeros(0),
            num_spanners=0,
            input_edges=0,
        )
    rng = as_rng(seed)
    n = graph.num_vertices
    m = graph.num_edges
    if num_spanners is None:
        num_spanners = max(1, int(np.ceil(np.log2(max(n, 2)))))
    if num_samples is None:
        num_samples = kp_sample_count(n, epsilon, constant=sample_constant)
    num_samples = min(num_samples, 50 * m)  # sampling more copies than 50m is pure waste

    bundle = t_bundle_spanner(graph, t=num_spanners, seed=rng)
    # Resistance upper bound per edge: spanner edges certify themselves
    # (R_e <= 1/w_e); other edges use their best path over the bundle union.
    upper = np.full(m, np.inf)
    upper[bundle.edge_indices] = 1.0 / graph.edge_weights[bundle.edge_indices]
    outside_mask = np.ones(m, dtype=bool)
    outside_mask[bundle.edge_indices] = False
    outside = np.flatnonzero(outside_mask)
    if outside.size:
        stretches = stretch_over_subgraph(graph, bundle.bundle, outside)
        # st_H(e) = w_e * dist_H => dist_H = st / w_e, and R_e[G] <= dist_H.
        upper[outside] = stretches / graph.edge_weights[outside]
        # Disconnected-in-bundle edges (shouldn't happen for real spanners)
        # fall back to the trivial bound 1 / w_e.
        bad = ~np.isfinite(upper)
        upper[bad] = 1.0 / graph.edge_weights[bad]

    scores = np.maximum(graph.edge_weights * upper, 1e-15)
    probabilities = scores / scores.sum()
    counts = rng.multinomial(num_samples, probabilities)
    chosen = np.flatnonzero(counts)
    new_weights = (
        counts[chosen] * graph.edge_weights[chosen] / (num_samples * probabilities[chosen])
    )
    sparsifier = Graph(n, graph.edge_u[chosen], graph.edge_v[chosen], new_weights)
    return KPResult(
        sparsifier=sparsifier,
        num_samples=num_samples,
        epsilon=epsilon,
        resistance_upper_bounds=upper,
        num_spanners=bundle.t,
        input_edges=m,
    )
