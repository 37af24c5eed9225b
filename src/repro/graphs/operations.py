"""Vertex-level graph operations that no :class:`repro.graphs.Graph` method covers.

The paper's graph algebra (Section 2) is on ``Graph`` itself: ``G1 + G2``
concatenates edge sets on a shared vertex set (``.coalesce()`` merges the
parallel edges), ``a * G`` scales weights, and the bundle peel
``G - (H_1 + ... + H_{i-1})`` is ``G.select_edges(remaining)`` on an index
array.  This module keeps the two operations that change the vertex set:
the relabelled vertex-induced subgraph and the disjoint union.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = ["induced_subgraph", "disjoint_union"]


def induced_subgraph(graph: Graph, vertices: Sequence[int] | np.ndarray) -> Graph:
    """Vertex-induced subgraph relabelled to ``0..k-1``.

    The ``i``-th entry of ``np.unique(vertices)`` becomes vertex ``i`` of
    the result, and the kept edges stay in the order they have in
    ``graph``.
    """
    vertex_ids = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertex_ids.size and (vertex_ids[0] < 0 or vertex_ids[-1] >= graph.num_vertices):
        raise GraphError("vertex ids out of range for induced_subgraph")
    remap = -np.ones(graph.num_vertices, dtype=np.int64)
    remap[vertex_ids] = np.arange(vertex_ids.shape[0])
    keep = (remap[graph.edge_u] >= 0) & (remap[graph.edge_v] >= 0)
    return Graph(
        vertex_ids.shape[0],
        remap[graph.edge_u[keep]],
        remap[graph.edge_v[keep]],
        graph.edge_weights[keep],
    )


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union: vertices of ``b`` are shifted by ``a.num_vertices``."""
    offset = a.num_vertices
    return Graph(
        a.num_vertices + b.num_vertices,
        np.concatenate([a.edge_u, b.edge_u + offset]),
        np.concatenate([a.edge_v, b.edge_v + offset]),
        np.concatenate([a.edge_weights, b.edge_weights]),
    )
