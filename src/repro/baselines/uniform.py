"""Naive uniform edge sampling (no bundle, no resistances).

Keeps each edge independently with probability ``p`` and rescales kept
edges by ``1/p``.  The expectation of the Laplacian is preserved, but with
no certificate on the leverage scores the variance is unbounded: a bridge
edge (leverage 1) is dropped with probability ``1 - p`` and the graph
disconnects, destroying the spectral approximation.  This is the
counter-example baseline showing why ``PARALLELSAMPLE`` spends its effort
on the bundle before sampling uniformly.

For method comparisons the sampler also accepts an ``epsilon`` keyword:
the keep-probability is then derived from the same
``O(n log n / eps^2)`` edge budget the Spielman–Srivastava sampler uses
(:func:`uniform_probability_for_epsilon`), so "uniform at epsilon" keeps
roughly as many edges as the importance samplers at the same epsilon and
the comparison isolates *where* the edges go, not how many there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "UniformSampleResult",
    "uniform_sparsify",
    "uniform_probability_for_epsilon",
]

#: Historical default keep-probability (the paper's 1/4 sampling rate).
DEFAULT_PROBABILITY = 0.25


@dataclass
class UniformSampleResult:
    """Output of uniform sampling.

    Carries ``sparsifier``, ``input_edges`` and ``output_edges``, the
    fields :class:`~repro.api.result.UnifiedResult` is built from; the
    reduction is ``UnifiedResult.reduction_factor``.
    """

    sparsifier: Graph
    probability: float
    input_edges: int
    output_edges: int
    epsilon: Optional[float] = None


def uniform_probability_for_epsilon(
    graph: Graph, epsilon: float, constant: float = 9.0
) -> float:
    """Keep-probability matching the importance samplers' edge budget.

    Targets ``q = constant * n * ln(n) / eps^2`` expected kept edges (the
    Spielman–Srivastava sample count with the same default constant),
    clipped to ``(0, 1]``.  Dense graphs get aggressive sampling, graphs
    already at or below the budget keep everything.
    """
    if epsilon <= 0 or epsilon > 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if graph.num_edges == 0:
        return 1.0
    n = max(graph.num_vertices, 2)
    target = constant * n * np.log(n) / (epsilon * epsilon)
    return float(min(1.0, max(target / graph.num_edges, np.finfo(float).tiny)))


def uniform_sparsify(
    graph: Graph,
    probability: Optional[float] = None,
    seed: SeedLike = None,
    *,
    epsilon: Optional[float] = None,
    sample_constant: float = 9.0,
) -> UniformSampleResult:
    """Keep each edge independently with probability ``p``, reweighted by ``1/p``.

    Parameters
    ----------
    probability:
        Explicit keep-probability.  Mutually exclusive with ``epsilon``;
        when both are omitted the historical default 0.25 is used.
    seed:
        RNG seed.
    epsilon:
        Epsilon-style parameterisation: derive the probability via
        :func:`uniform_probability_for_epsilon` so this baseline is
        directly comparable to the epsilon-driven samplers.
    sample_constant:
        Constant of the epsilon-derived edge budget (matches the
        Spielman–Srivastava default).
    """
    if probability is not None and epsilon is not None:
        raise SparsificationError(
            "pass either probability or epsilon, not both "
            f"(got probability={probability}, epsilon={epsilon})"
        )
    if epsilon is not None:
        probability = uniform_probability_for_epsilon(
            graph, epsilon, constant=sample_constant
        )
    elif probability is None:
        probability = DEFAULT_PROBABILITY
    if not 0 < probability <= 1:
        raise SparsificationError(f"probability must lie in (0, 1], got {probability}")
    rng = as_rng(seed)
    keep = rng.random(graph.num_edges) < probability
    kept = np.flatnonzero(keep)
    sparsifier = Graph(
        graph.num_vertices,
        graph.edge_u[kept],
        graph.edge_v[kept],
        graph.edge_weights[kept] / probability,
    )
    return UniformSampleResult(
        sparsifier=sparsifier,
        probability=probability,
        input_edges=graph.num_edges,
        output_edges=sparsifier.num_edges,
        epsilon=epsilon,
    )
