"""Tests for repro.graphs.laplacian and Laplacian assembly from edge arrays."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graphs.conversion import from_laplacian
from repro.graphs.graph import Graph
from repro.graphs.laplacian import is_laplacian


class TestLaplacianFromEdges:
    """``Graph(n, u, v, w).laplacian()`` is the one assembly from edge arrays."""

    def test_matches_graph_laplacian(self, weighted_er_graph):
        g = weighted_er_graph
        adjacency = np.zeros((g.num_vertices, g.num_vertices))
        np.add.at(adjacency, (g.edge_u, g.edge_v), g.edge_weights)
        adjacency += adjacency.T
        expected = np.diag(adjacency.sum(axis=1)) - adjacency
        lap = Graph(g.num_vertices, g.edge_u, g.edge_v, g.edge_weights).laplacian()
        assert np.allclose(lap.toarray(), expected)

    def test_parallel_edges_summed(self):
        lap = Graph(2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0])).laplacian()
        assert lap[0, 1] == pytest.approx(-3.0)
        assert lap[0, 0] == pytest.approx(3.0)

    def test_empty_edges(self):
        lap = Graph(3, np.array([], dtype=int), np.array([], dtype=int), np.array([])).laplacian()
        assert lap.shape == (3, 3)
        assert not lap.toarray().any()

    def test_shape_mismatch(self):
        with pytest.raises(GraphError):
            Graph(3, np.array([0]), np.array([1, 2]), np.array([1.0]))


class TestIncidenceAndEdgeLaplacian:
    def test_incidence_reconstruction(self, small_er_graph):
        # One incidence row per edge, parallel copies included.
        g = small_er_graph + small_er_graph
        inc = g.incidence()
        assert inc.shape == (g.num_edges, g.num_vertices)
        reconstructed = inc.T @ sp.diags(g.edge_weights) @ inc
        assert np.allclose(reconstructed.toarray(), g.laplacian().toarray())

    def test_edge_laplacian_sum_equals_graph_laplacian(self, weighted_path):
        total = sum(
            Graph(weighted_path.num_vertices, [u], [v], [w]).laplacian().toarray()
            for u, v, w in weighted_path.edges()
        )
        assert np.allclose(total, weighted_path.laplacian().toarray())

    def test_edge_laplacian_psd_dominated_by_resistance(self, triangle_graph):
        # B_e <= R_e * L_G  (the algebraic fact quoted before Corollary 1).
        from repro.resistance.exact import effective_resistances_of_pairs

        lap = triangle_graph.laplacian().toarray()
        for u, v, w in triangle_graph.edges():
            be = Graph(3, [u], [v], [1.0]).laplacian().toarray()
            r = effective_resistances_of_pairs(triangle_graph, [(u, v)])[0]
            diff = r * lap - be
            eigenvalues = np.linalg.eigvalsh(0.5 * (diff + diff.T))
            assert eigenvalues.min() >= -1e-9


class TestHelpers:
    """Per-vertex and per-vector Graph methods on a multigraph."""

    def test_weighted_degrees(self, weighted_path):
        doubled = weighted_path + weighted_path
        deg = doubled.weighted_degrees()
        assert np.allclose(deg, [2.0, 6.0, 12.0, 8.0])
        assert np.allclose(deg, doubled.laplacian().diagonal())

    def test_quadratic_form_from_arrays(self, weighted_er_graph, rng):
        g = weighted_er_graph + weighted_er_graph.scaled(0.5)
        x = rng.standard_normal(g.num_vertices)
        val = g.quadratic_form(x)
        assert val == pytest.approx(g.coalesce().quadratic_form(x))
        assert val == pytest.approx(float(x @ g.laplacian() @ x))

    def test_quadratic_form_empty(self):
        assert Graph(1).quadratic_form(np.array([1.0])) == 0.0
        assert Graph(3).quadratic_form(np.array([1.0, -2.0, 5.0])) == 0.0


class TestIsLaplacian:
    def test_true_for_graph_laplacian(self, small_er_graph):
        assert is_laplacian(small_er_graph.laplacian())
        assert is_laplacian(small_er_graph.laplacian().toarray())

    def test_false_for_identity(self):
        assert not is_laplacian(np.eye(3))

    def test_false_for_asymmetric(self):
        mat = np.array([[1.0, -1.0], [0.0, 1.0]])
        assert not is_laplacian(mat)

    def test_false_for_positive_offdiagonal(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert not is_laplacian(mat)

    def test_false_for_rectangular(self):
        assert not is_laplacian(np.ones((2, 3)))

    def test_empty_matrix(self):
        assert is_laplacian(np.zeros((3, 3)))


class TestLaplacianToGraphArrays:
    """``from_laplacian`` turns a Laplacian back into a graph."""

    def test_roundtrip(self, weighted_er_graph):
        # Parallel edges come back merged.
        doubled = weighted_er_graph + weighted_er_graph
        rebuilt = from_laplacian(doubled.laplacian())
        assert rebuilt.num_edges == weighted_er_graph.num_edges
        assert rebuilt.same_edge_set(weighted_er_graph.scaled(2.0))

    def test_weight_tolerance_drops_noise(self):
        g = Graph(3, [0, 1], [1, 2], [1.0, 1e-15])
        assert from_laplacian(g.laplacian()).num_edges == 2
        rebuilt = from_laplacian(g.laplacian(), tol=1e-12)
        assert rebuilt.num_edges == 1
        assert list(rebuilt.edge_weight_map()) == [(0, 1)]
