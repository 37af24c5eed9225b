"""Tests for repro.graphs.io and repro.graphs.conversion."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.conversion import from_laplacian, to_networkx
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list


class TestEdgeListIO:
    def test_roundtrip(self, weighted_er_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(weighted_er_graph, path)
        loaded = read_edge_list(path)
        assert loaded.same_edge_set(weighted_er_graph)

    def test_roundtrip_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_edge_list(Graph(4), path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 0

    def test_unweighted_lines_default_to_one(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("# 3 2\n0 1\n1 2\n")
        loaded = read_edge_list(path)
        assert np.allclose(loaded.edge_weights, 1.0)

    def test_missing_header_infers_vertices(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("0 4 2.0\n")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 5

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 3 1\n0 1 2.0 extra stuff\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# 3 1\n\n# a comment\n0 1 1.5\n")
        loaded = read_edge_list(path)
        assert loaded.num_edges == 1


class TestNetworkxConversion:
    def test_roundtrip(self, weighted_er_graph):
        nx_graph = to_networkx(weighted_er_graph)
        u, v, w = zip(*((a, b, data["weight"]) for a, b, data in nx_graph.edges(data=True)))
        back = Graph(nx_graph.number_of_nodes(), u, v, w)
        assert back.same_edge_set(weighted_er_graph)

    def test_to_networkx_node_count_preserved(self):
        g = Graph(6, [0], [1], [1.0])  # isolated vertices must survive
        nx_graph = to_networkx(g)
        assert nx_graph.number_of_nodes() == 6

    def test_multigraph_mode(self, triangle_graph):
        doubled = triangle_graph + triangle_graph
        multi = to_networkx(doubled, coalesce=False)
        assert multi.number_of_edges() == 6

    def test_laplacians_agree_with_networkx(self, small_er_graph):
        ours = small_er_graph.laplacian().toarray()
        theirs = nx.laplacian_matrix(
            to_networkx(small_er_graph), nodelist=range(small_er_graph.num_vertices)
        ).toarray()
        assert np.allclose(ours, theirs)


class TestScipyConversion:
    def test_adjacency_roundtrip(self, weighted_er_graph):
        # The adjacency sums parallel edges, so they come back merged.
        doubled = weighted_er_graph + weighted_er_graph
        back = from_laplacian(-doubled.adjacency())
        assert back.num_edges == weighted_er_graph.num_edges
        assert back.same_edge_set(doubled)

    def test_laplacian_roundtrip(self, weighted_er_graph):
        lap = weighted_er_graph.laplacian()
        back = from_laplacian(lap)
        assert back.same_edge_set(weighted_er_graph)

    def test_from_laplacian_rejects_positive_offdiagonal(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(GraphError):
            from_laplacian(mat)

    def test_from_laplacian_rejects_rectangular(self):
        import scipy.sparse as sp

        with pytest.raises(GraphError):
            from_laplacian(sp.csr_matrix(np.zeros((2, 3))))
