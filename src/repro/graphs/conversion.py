"""Conversions between :class:`repro.graphs.Graph` and other representations.

``networkx`` graphs serve visual inspection and an independent
implementation to cross-check algorithms against in tests; networkx is
not a dependency of the package, and only :func:`to_networkx` imports it.
A Laplacian matrix becomes a graph through :func:`from_laplacian`.  The
SciPy adjacency and Laplacian are :meth:`Graph.adjacency`,
:meth:`Graph.laplacian` and :meth:`Graph.from_sparse_adjacency`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "from_laplacian"]


def to_networkx(graph: Graph, coalesce: bool = True) -> nx.Graph:
    """Convert to a ``networkx.Graph`` with ``weight`` edge attributes.

    Parallel edges are merged (weights summed) by default because
    ``networkx.Graph`` is a simple graph; pass ``coalesce=False`` to get a
    ``networkx.MultiGraph`` preserving multiplicities instead.
    """
    import networkx as nx

    if coalesce:
        source = graph.coalesce()
        out: nx.Graph = nx.Graph()
    else:
        source = graph
        out = nx.MultiGraph()
    out.add_nodes_from(range(source.num_vertices))
    out.add_weighted_edges_from(
        (int(u), int(v), float(w)) for u, v, w in source.edges()
    )
    return out


def from_laplacian(laplacian: sp.spmatrix, tol: float = 0.0) -> Graph:
    """Graph whose Laplacian equals ``laplacian`` (off-diagonals negated).

    Positive off-diagonal entries (which cannot come from a graph) raise a
    :class:`repro.exceptions.GraphError`.  Edges of weight ``<= tol`` are
    dropped, which clears numerical noise left by matrix products.
    """
    lap = sp.coo_matrix(laplacian)
    if lap.shape[0] != lap.shape[1]:
        raise GraphError(f"Laplacian must be square, got shape {lap.shape}")
    mask = lap.row < lap.col
    weights = -lap.data[mask]
    if np.any(weights < -1e-12):
        raise GraphError("matrix has positive off-diagonal entries; not a graph Laplacian")
    keep = weights > tol
    return Graph(
        lap.shape[0],
        lap.row[mask][keep].astype(np.int64),
        lap.col[mask][keep].astype(np.int64),
        weights[keep],
    )
