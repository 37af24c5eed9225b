"""Graph substrate: containers, Laplacians, generators, algebra, connectivity.

The central type is :class:`repro.graphs.Graph`, an immutable weighted
undirected multigraph stored as parallel edge arrays.  Everything else in
the package (spanners, sparsifiers, solvers) operates on this type.
"""

from repro.graphs.graph import Graph
from repro.graphs.laplacian import (
    edge_laplacian,
    incidence_matrix,
    is_laplacian,
    laplacian_from_edges,
    laplacian_quadratic_form,
    weighted_degrees,
)
from repro.graphs.connectivity import (
    UnionFind,
    connected_components,
    is_connected,
    sample_component_pairs,
    spanning_forest,
)
from repro.graphs.operations import (
    graph_difference,
    graph_scale,
    graph_sum,
    induced_subgraph,
    reweighted,
)
from repro.graphs.sharding import GraphShards, partition_vertex_ranges, shard_edges
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
    "GraphShards",
    "partition_vertex_ranges",
    "shard_edges",
    "Graph",
    "edge_laplacian",
    "incidence_matrix",
    "is_laplacian",
    "laplacian_from_edges",
    "laplacian_quadratic_form",
    "weighted_degrees",
    "UnionFind",
    "connected_components",
    "is_connected",
    "sample_component_pairs",
    "spanning_forest",
    "graph_difference",
    "graph_scale",
    "graph_sum",
    "induced_subgraph",
    "reweighted",
    "KOutResult",
    "default_k_out",
    "k_out_keep_probabilities",
    "k_out_select",
    "random_k_out_sample",
    "generators",
    "io",
    "conversion",
]
