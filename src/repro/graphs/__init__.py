"""Graph substrate: the ``Graph`` container, generators, IO, connectivity.

The central type is :class:`repro.graphs.Graph`, an immutable weighted
undirected multigraph stored as parallel edge arrays.  Everything else in
the package (spanners, sparsifiers, solvers) operates on this type, and
each graph operation has one implementation: the Laplacian, incidence
matrix, quadratic form, weighted degrees, ``+``, ``*``, ``select_edges``
and ``coalesce`` are ``Graph`` methods.  The modules here hold only what
no method covers: the Laplacian check (:mod:`~repro.graphs.laplacian`),
connected components (:mod:`~repro.graphs.connectivity`), induced
subgraphs and disjoint unions (:mod:`~repro.graphs.operations`), and
networkx / Laplacian conversion (:mod:`~repro.graphs.conversion`).
"""

from repro.graphs.graph import Graph
from repro.graphs.laplacian import is_laplacian
from repro.graphs.connectivity import (
    connected_components,
    is_connected,
    sample_component_pairs,
)
from repro.graphs.operations import induced_subgraph
from repro.graphs.kout import (
    KOutResult,
    default_k_out,
    k_out_keep_probabilities,
    k_out_select,
    random_k_out_sample,
)
from repro.graphs import generators
from repro.graphs import io
from repro.graphs import conversion

__all__ = [
    "Graph",
    "is_laplacian",
    "connected_components",
    "is_connected",
    "sample_component_pairs",
    "induced_subgraph",
    "KOutResult",
    "default_k_out",
    "k_out_keep_probabilities",
    "k_out_select",
    "random_k_out_sample",
    "generators",
    "io",
    "conversion",
]
