"""Tests for the graph algebra: Graph's ``+``/``*`` and repro.graphs.operations."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union, induced_subgraph


class TestGraphSum:
    """``G1 + G2`` and ``a * G`` on a shared vertex set (Section 2)."""

    def test_sum_of_laplacians(self, triangle_graph, rng):
        doubled = (triangle_graph + triangle_graph).coalesce()
        assert np.allclose(
            doubled.laplacian().toarray(), 2 * triangle_graph.laplacian().toarray()
        )

    def test_sum_preserves_multigraph_without_coalesce(self, triangle_graph):
        result = triangle_graph + triangle_graph
        assert result.num_edges == 6
        assert result.coalesce().num_edges == 3

    def test_sum_requires_matching_vertex_counts(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph + Graph(4)

    def test_sum_with_empty_graphs(self):
        result = Graph(3) + Graph(3)
        assert result.num_edges == 0
        assert result.coalesce().num_edges == 0

    def test_scale(self, weighted_path):
        tripled = 3.0 * weighted_path
        assert tripled.total_weight == pytest.approx(21.0)
        assert np.allclose(tripled.laplacian().toarray(), 3.0 * weighted_path.laplacian().toarray())


class TestMembershipAndDifference:
    def test_bundle_peeling_identity(self, small_er_graph):
        """G = H + (G - H) when the peel selects the complement of H's edge indices."""
        taken = np.arange(0, small_er_graph.num_edges, 3)
        h = small_er_graph.select_edges(taken)
        rest = small_er_graph.select_edges(np.setdiff1d(np.arange(small_er_graph.num_edges), taken))
        assert rest.num_edges == small_er_graph.num_edges - h.num_edges
        assert (h + rest).same_edge_set(small_er_graph)


class TestSubgraphAndReweight:
    def test_induced_subgraph_relabels(self):
        g = gen.grid_graph(3, 3)
        sub = induced_subgraph(g, [0, 1, 3, 4])
        assert sub.num_vertices == 4
        assert sub.num_edges == 4  # the 2x2 sub-grid

    def test_induced_subgraph_out_of_range(self, triangle_graph):
        with pytest.raises(GraphError):
            induced_subgraph(triangle_graph, [0, 5])

    def test_induced_subgraph_empty_selection(self, triangle_graph):
        sub = induced_subgraph(triangle_graph, [])
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_reweighted(self, weighted_path):
        new = weighted_path.with_weights(np.array([1.0, 1.0, 1.0]))
        assert new.total_weight == pytest.approx(3.0)
        assert np.array_equal(new.edge_u, weighted_path.edge_u)
        assert np.array_equal(new.edge_v, weighted_path.edge_v)

    def test_reweighted_wrong_length(self, weighted_path):
        with pytest.raises(GraphError):
            weighted_path.with_weights(np.array([1.0]))

    def test_disjoint_union(self, triangle_graph, weighted_path):
        combined = disjoint_union(triangle_graph, weighted_path)
        assert combined.num_vertices == 7
        assert combined.num_edges == 6
        # No edges between the two blocks.
        assert not np.any((combined.edge_u < 3) & (combined.edge_v >= 3))
