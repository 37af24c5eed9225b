"""Random k-out edge sampling (Holm et al., arXiv:1909.11147).

Each vertex independently picks ``min(k, deg)`` of its incident edges
uniformly at random; the sample is the union of all picks.  Holm,
King, Thorup, Zamir and Zwick show that ``k = Omega(log n)`` random
out-edges per vertex leave only ``O(n / k)`` inter-component edges —
which is what makes the sample an ultra-cheap *presampling* stage a
caller can put in front of heavier machinery (the t-bundle spanner, or
a stream's ``ingest``): connectivity survives w.h.p. while dense bursts
collapse to ``O(n k)`` edges.  GBBS's ``kout_sampling.h`` is the
exemplar implementation at scale (SNIPPETS.md, Snippet 2).

The selection is fully vectorised: one random key per half-edge, one
``lexsort`` grouping half-edges by owning vertex, and a rank-within-group
threshold — no per-vertex Python loop.

Because a plain k-out sample biases the Laplacian (high-degree vertices
lose proportionally more incident weight), :func:`random_k_out_sample`
defaults to Horvitz–Thompson reweighting: each kept edge's weight is
divided by its inclusion probability ``P[e kept] = p_u + p_v - p_u p_v``
with ``p_x = min(k / deg(x), 1)``, so the sampled Laplacian is unbiased
in expectation.  Pass ``reweight=False`` for the structural
(connectivity-only) sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import RandomState, SeedLike, as_rng

__all__ = [
    "KOutResult",
    "k_out_select",
    "k_out_keep_probabilities",
    "random_k_out_sample",
    "default_k_out",
]


def default_k_out(num_vertices: int) -> int:
    """The ``k = ceil(log2 n)`` default, the Holm et al. connectivity regime."""
    return max(1, int(np.ceil(np.log2(max(num_vertices, 2)))))


@dataclass
class KOutResult:
    """Output of one random k-out sample.

    Attributes
    ----------
    sparsifier:
        The sampled graph (reweighted when ``reweighted`` is True).
    kept_indices:
        Sorted indices (into the input graph) of the kept edges.
    k:
        Picks per vertex that were used.
    input_edges / output_edges:
        Edge counts before and after.
    reweighted:
        Whether Horvitz–Thompson reweighting was applied.
    """

    sparsifier: Graph
    kept_indices: np.ndarray
    k: int
    input_edges: int
    output_edges: int
    reweighted: bool


def k_out_select(
    num_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    k: int,
    rng: RandomState,
) -> np.ndarray:
    """Indices of the edges kept by a random k-out pass (sorted, unique).

    Raw-array kernel: an edge is kept when either endpoint picks it among
    its ``min(k, deg)`` uniformly random incident edges.  Parallel edges
    are distinct candidates (each counts towards its endpoints' degrees
    and is picked independently), matching the multigraph semantics of
    the rest of the stack.  Consumes exactly one ``rng.random`` draw of
    size ``2 m``, so the selection is deterministic per seed and
    independent of backend or attempt count.
    """
    if k < 1:
        raise GraphError(f"k-out parameter k must be >= 1, got {k}")
    m = int(np.asarray(edge_u).shape[0])
    if m == 0:
        return np.array([], dtype=np.int64)
    owners = np.concatenate([edge_u, edge_v])
    ids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    keys = rng.random(2 * m)
    counts = np.bincount(owners, minlength=num_vertices)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    order = np.lexsort((keys, owners))
    # Rank of each half-edge within its owner's group, in key order.
    ranks = np.arange(2 * m, dtype=np.int64) - np.repeat(indptr[:-1], counts)
    kept_half = order[ranks < k]
    return np.unique(ids[kept_half])


def k_out_keep_probabilities(
    num_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-edge inclusion probability under the k-out sample.

    ``P[e kept] = p_u + p_v - p_u p_v`` with ``p_x = min(k / deg(x), 1)``:
    each endpoint picks a uniform ``min(k, deg)``-subset of its incident
    edges, so the marginal per endpoint is exactly ``min(k / deg, 1)``
    and the two picks are independent.  This is the Horvitz–Thompson
    divisor that makes the sampled Laplacian unbiased.
    """
    degrees = np.bincount(np.concatenate([edge_u, edge_v]), minlength=num_vertices)
    safe = np.maximum(degrees, 1)
    p_vertex = np.minimum(k / safe, 1.0)
    p_u = p_vertex[edge_u]
    p_v = p_vertex[edge_v]
    return p_u + p_v - p_u * p_v


def random_k_out_sample(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    reweight: bool = True,
) -> KOutResult:
    """Sample ``min(k, deg)`` random incident edges per vertex and keep the union.

    Parameters
    ----------
    graph:
        Input weighted graph.
    k:
        Picks per vertex (default ``ceil(log2 n)``, the Holm et al.
        connectivity regime).
    seed:
        RNG seed (one vectorised draw; deterministic per seed).
    reweight:
        Divide each kept edge's weight by its inclusion probability so
        the sampled Laplacian is unbiased (default).  ``False`` keeps
        original weights — the structural, connectivity-only sample.

    Returns
    -------
    KOutResult
    """
    if k is None:
        k = default_k_out(graph.num_vertices)
    rng = as_rng(seed)
    kept = k_out_select(graph.num_vertices, graph.edge_u, graph.edge_v, k, rng)
    if reweight:
        probabilities = k_out_keep_probabilities(
            graph.num_vertices, graph.edge_u, graph.edge_v, k
        )
        weights = graph.edge_weights[kept] / probabilities[kept]
        sparsifier = Graph._from_trusted(
            graph.num_vertices, graph.edge_u[kept], graph.edge_v[kept], weights
        )
    else:
        sparsifier = graph.select_edges(kept)
    return KOutResult(
        sparsifier=sparsifier,
        kept_indices=kept,
        k=int(k),
        input_edges=graph.num_edges,
        output_edges=sparsifier.num_edges,
        reweighted=bool(reweight),
    )
