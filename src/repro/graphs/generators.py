"""Synthetic graph generators used by examples, tests, and benchmarks.

The paper is evaluated (theoretically) on general weighted graphs; its
motivation mentions dense instances, SDD systems from PDE discretisations
(Remark 1: regular weighted 2-D grids / image 'affinity' graphs), and the
Peng--Spielman chain whose intermediate graphs densify.  The generators
below cover those regimes:

* structured sparse graphs (paths, cycles, 2-D grids, bands),
* random sparse/dense models (Erdős–Rényi, preferential attachment,
  random geometric),
* worst-case-ish shapes for resistance (dumbbells, stars),
* weighted image-affinity grids (Remark 1) with synthetic images,
* dense complete graphs for sanity-checking the sparsifiers.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "banded_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "random_geometric_graph",
    "dumbbell_graph",
    "image_affinity_graph",
]


# --------------------------------------------------------------------- #
# Deterministic structured graphs
# --------------------------------------------------------------------- #

def path_graph(n: int, weight: float = 1.0) -> Graph:
    """Path on ``n`` vertices: 0-1-2-...-(n-1)."""
    if n < 1:
        raise GraphError("path_graph requires n >= 1")
    idx = np.arange(n - 1, dtype=np.int64)
    return Graph(n, idx, idx + 1, np.full(n - 1, float(weight)))


def cycle_graph(n: int, weight: float = 1.0) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError("cycle_graph requires n >= 3")
    idx = np.arange(n, dtype=np.int64)
    return Graph(n, idx, (idx + 1) % n, np.full(n, float(weight)))


def star_graph(n: int, weight: float = 1.0) -> Graph:
    """Star with centre 0 and ``n - 1`` leaves."""
    if n < 2:
        raise GraphError("star_graph requires n >= 2")
    leaves = np.arange(1, n, dtype=np.int64)
    return Graph(n, np.zeros(n - 1, dtype=np.int64), leaves, np.full(n - 1, float(weight)))


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """Complete graph K_n — the canonical dense input for sparsifiers."""
    if n < 1:
        raise GraphError("complete_graph requires n >= 1")
    iu, iv = np.triu_indices(n, k=1)
    return Graph(n, iu.astype(np.int64), iv.astype(np.int64), np.full(iu.shape[0], float(weight)))


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """Four-connected 2-D grid with ``rows * cols`` vertices.

    Vertex ``(r, c)`` has index ``r * cols + c``.  These are the 'affinity'
    graph skeletons discussed in Remark 1.
    """
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    idx = (r * cols + c).astype(np.int64)
    horiz_u = idx[:, :-1].ravel()
    horiz_v = idx[:, 1:].ravel()
    vert_u = idx[:-1, :].ravel()
    vert_v = idx[1:, :].ravel()
    u = np.concatenate([horiz_u, vert_u])
    v = np.concatenate([horiz_v, vert_v])
    return Graph(rows * cols, u, v, np.full(u.shape[0], float(weight)))


def dumbbell_graph(clique_size: int, path_length: int = 1) -> Graph:
    """Two cliques of size ``clique_size`` joined by a path of ``path_length`` edges.

    The bridge edges have effective resistance close to their full path
    resistance, making this the standard stress test for resistance-based
    sampling (the bridge must never be dropped).
    """
    if clique_size < 2:
        raise GraphError("dumbbell_graph requires clique_size >= 2")
    if path_length < 1:
        raise GraphError("dumbbell_graph requires path_length >= 1")
    k = clique_size
    n = 2 * k + (path_length - 1)
    iu, iv = np.triu_indices(k, k=1)
    # First clique on 0..k-1, second on (n-k)..(n-1).
    u = [iu, iu + (n - k)]
    v = [iv, iv + (n - k)]
    # Path from vertex k-1 through intermediate vertices to vertex n-k.
    chain = np.concatenate([[k - 1], np.arange(k, k + path_length - 1), [n - k]]).astype(np.int64)
    u.append(chain[:-1])
    v.append(chain[1:])
    uu = np.concatenate(u)
    vv = np.concatenate(v)
    return Graph(n, uu, vv, np.ones(uu.shape[0]))


# --------------------------------------------------------------------- #
# Random graph models
# --------------------------------------------------------------------- #

def banded_graph(
    n: int,
    band: int,
    weight_range: Optional[Tuple[float, float]] = None,
    seed: SeedLike = None,
) -> Graph:
    """Vertex ``u`` joined to ``u+1 .. u+band``: dense with perfect id locality.

    Dense yet low-fill: its Laplacian has a narrow envelope, so it is the
    canonical input for the factorized solve rung and for local memory
    access.  Optionally weighted uniformly from ``weight_range``.
    """
    if n < 1:
        raise GraphError("banded_graph requires n >= 1")
    if band < 1:
        raise GraphError(f"band must be >= 1, got {band}")
    offsets = np.arange(1, band + 1)
    u = np.repeat(np.arange(n, dtype=np.int64), band)
    v = u + np.tile(offsets, n)
    mask = v < n
    u, v = u[mask], v[mask]
    if weight_range is not None:
        lo, hi = weight_range
        if not (0 < lo <= hi):
            raise GraphError("weight_range must satisfy 0 < lo <= hi")
        weights = as_rng(seed).uniform(lo, hi, size=u.shape[0])
    else:
        weights = np.ones(u.shape[0])
    return Graph(n, u, v, weights)


def erdos_renyi_graph(
    n: int,
    p: float,
    seed: SeedLike = None,
    weight_range: Optional[Tuple[float, float]] = None,
    ensure_connected: bool = False,
) -> Graph:
    """G(n, p) Erdős–Rényi graph, optionally with uniform random weights.

    With ``ensure_connected=True`` a random Hamiltonian-path backbone is
    added so that the result is connected (useful because effective
    resistances are only defined within components).
    """
    if n < 1:
        raise GraphError("erdos_renyi_graph requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = as_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    u = iu[mask].astype(np.int64)
    v = iv[mask].astype(np.int64)
    if ensure_connected and n > 1:
        perm = rng.permutation(n).astype(np.int64)
        backbone_u = perm[:-1]
        backbone_v = perm[1:]
        u = np.concatenate([u, np.minimum(backbone_u, backbone_v)])
        v = np.concatenate([v, np.maximum(backbone_u, backbone_v)])
    # Deduplicate edges (a backbone edge may repeat an ER edge); the graph is
    # unweighted at this point, so duplicates are dropped rather than summed.
    if u.size:
        keys = u * np.int64(n) + v
        _, unique_idx = np.unique(keys, return_index=True)
        u = u[unique_idx]
        v = v[unique_idx]
    graph = Graph(n, u, v, np.ones(u.shape[0]))
    if weight_range is not None:
        lo, hi = weight_range
        if not (0 < lo <= hi):
            raise GraphError("weight_range must satisfy 0 < lo <= hi")
        weights = rng.uniform(lo, hi, size=graph.num_edges)
        graph = graph.with_weights(weights)
    return graph


def barabasi_albert_graph(n: int, attachment: int, seed: SeedLike = None) -> Graph:
    """Preferential-attachment (Barabási–Albert) graph.

    Starts from a small clique and attaches each new vertex to
    ``attachment`` existing vertices chosen proportionally to degree.
    Produces the skewed degree distributions where spanner bundles are
    cheap relative to the hubs' edge counts.
    """
    if attachment < 1:
        raise GraphError("attachment must be >= 1")
    if n <= attachment:
        raise GraphError("n must exceed the attachment parameter")
    rng = as_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    # Seed clique on attachment + 1 vertices.
    seed_size = attachment + 1
    for i in range(seed_size):
        for j in range(i + 1, seed_size):
            us.append(i)
            vs.append(j)
    # Repeated-targets list implements preferential attachment.
    targets = list(us) + list(vs)
    for new_vertex in range(seed_size, n):
        chosen: set[int] = set()
        while len(chosen) < attachment:
            pick = int(targets[rng.integers(0, len(targets))])
            chosen.add(pick)
        for tgt in chosen:
            us.append(tgt)
            vs.append(new_vertex)
            targets.append(tgt)
            targets.append(new_vertex)
    return Graph(n, us, vs, np.ones(len(us)))


def random_geometric_graph(
    n: int, radius: float, seed: SeedLike = None, torus: bool = False
) -> Graph:
    """Random geometric graph on the unit square.

    Vertices are uniform points; edges join pairs within ``radius``, with
    weight ``1 / distance`` (closer points are more strongly connected),
    mimicking similarity/affinity constructions.
    """
    if n < 1:
        raise GraphError("random_geometric_graph requires n >= 1")
    if radius <= 0:
        raise GraphError("radius must be positive")
    rng = as_rng(seed)
    points = rng.random((n, 2))
    iu, iv = np.triu_indices(n, k=1)
    delta = np.abs(points[iu] - points[iv])
    if torus:
        delta = np.minimum(delta, 1.0 - delta)
    dist = np.sqrt((delta ** 2).sum(axis=1))
    mask = (dist < radius) & (dist > 1e-12)
    weights = 1.0 / dist[mask]
    return Graph(n, iu[mask].astype(np.int64), iv[mask].astype(np.int64), weights)


# --------------------------------------------------------------------- #
# Image affinity graphs (Remark 1)
# --------------------------------------------------------------------- #

def _synthetic_image(rows: int, cols: int, seed: SeedLike, kind: str) -> np.ndarray:
    """Small synthetic grayscale image in [0, 1] used for affinity graphs."""
    rng = as_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, rows), np.linspace(0, 1, cols), indexing="ij")
    if kind == "blobs":
        centers = rng.random((4, 2))
        image = np.zeros((rows, cols))
        for cy, cx in centers:
            image += np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.02))
        image /= image.max() if image.max() > 0 else 1.0
    elif kind == "stripes":
        image = 0.5 + 0.5 * np.sin(2 * np.pi * (3 * xx + rng.random()))
    elif kind == "noise":
        image = rng.random((rows, cols))
    else:
        raise GraphError(f"unknown synthetic image kind {kind!r}")
    return image


def image_affinity_graph(
    rows: int,
    cols: int,
    beta: float = 10.0,
    seed: SeedLike = None,
    image: Optional[np.ndarray] = None,
    kind: str = "blobs",
    min_weight: float = 1e-4,
) -> Graph:
    """Weighted 4-connected affinity graph of a (synthetic) grayscale image.

    Edge weights follow the standard graph-based image processing affinity
    ``w_ij = exp(-beta * (I_i - I_j)^2)``, clipped below at ``min_weight``.
    Remark 1 of the paper singles out exactly these 'regular weighted
    two-dimensional grids that are affinity graphs of images' as the class
    where near-linear-work logarithmic-time solvers may be possible; this
    generator provides the workload for experiment E11.
    """
    if image is None:
        image = _synthetic_image(rows, cols, seed, kind)
    image = np.asarray(image, dtype=float)
    if image.shape != (rows, cols):
        raise GraphError(f"image must have shape {(rows, cols)}, got {image.shape}")
    skeleton = grid_graph(rows, cols)
    flat = image.ravel()
    diff = flat[skeleton.edge_u] - flat[skeleton.edge_v]
    weights = np.exp(-float(beta) * diff * diff)
    weights = np.maximum(weights, min_weight)
    return skeleton.with_weights(weights)
