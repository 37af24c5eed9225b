"""Tests for the Graph container (repro.graphs.graph)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs.generators import path_graph
from repro.graphs.graph import Graph
from repro.resistance.exact import effective_resistances_of_pairs


class TestConstruction:
    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.total_weight == 0.0

    def test_basic_edges(self, triangle_graph):
        assert triangle_graph.num_vertices == 3
        assert triangle_graph.num_edges == 3
        assert triangle_graph.total_weight == pytest.approx(3.0)

    def test_default_unit_weights(self):
        g = Graph(3, [0, 1], [1, 2])
        assert np.allclose(g.edge_weights, 1.0)

    def test_orientation_normalised(self):
        g = Graph(4, [3, 2], [1, 0], [1.0, 2.0])
        assert np.all(g.edge_u < g.edge_v)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [0], [0], [1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [0], [3], [1.0])
        with pytest.raises(GraphError):
            Graph(3, [-1], [1], [1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError):
            Graph(3, [0], [1], [0.0])
        with pytest.raises(GraphError):
            Graph(3, [0], [1], [-2.0])
        with pytest.raises(GraphError):
            Graph(3, [0], [1], [np.inf])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError):
            Graph(3, [0, 1], [1], [1.0, 1.0])
        with pytest.raises(GraphError):
            Graph(3, [0], [1], [1.0, 2.0])

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(GraphError, match="integers"):
            Graph(3, [0.7], [2.2])
        # Integral floats are endpoints like any other.
        assert Graph(3, [0.0], [2.0]).edge_weight_map() == {(0, 2): 1.0}

    def test_rejects_boolean_endpoints(self):
        # True/False are not vertex ids 1/0, for edges or for probe pairs.
        with pytest.raises(GraphError, match="boolean"):
            Graph(3, [True], [False])
        with pytest.raises(GraphError, match="boolean"):
            effective_resistances_of_pairs(path_graph(4), np.array([[True, False]]))

    def test_edge_arrays_readonly(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.edge_weights[0] = 5.0


class TestAccessors:
    def test_weighted_degrees(self, weighted_path):
        assert np.allclose(weighted_path.weighted_degrees(), [1.0, 3.0, 6.0, 4.0])

    def test_edges_iterator(self, weighted_path):
        edges = list(weighted_path.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]

    def test_edge_keys_unique_for_simple_graph(self, small_er_graph):
        keys = small_er_graph.edge_keys()
        assert len(np.unique(keys)) == small_er_graph.num_edges

    def test_neighbor_lists_consistency(self, small_er_graph):
        indptr, neighbors, weights, edge_ids = small_er_graph.neighbor_lists()
        assert indptr[-1] == 2 * small_er_graph.num_edges
        assert neighbors.shape == weights.shape == edge_ids.shape
        # Degrees derived from indptr match the endpoint counts.
        degrees = np.bincount(
            np.concatenate([small_er_graph.edge_u, small_er_graph.edge_v]),
            minlength=small_er_graph.num_vertices,
        )
        assert np.array_equal(np.diff(indptr), degrees)


class TestMatrices:
    def test_laplacian_row_sums_zero(self, small_er_graph):
        lap = small_er_graph.laplacian()
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-10)

    def test_laplacian_psd(self, small_er_graph):
        lap = small_er_graph.laplacian().toarray()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() >= -1e-9

    def test_adjacency_symmetric(self, small_er_graph):
        adj = small_er_graph.adjacency()
        assert abs(adj - adj.T).max() < 1e-12

    def test_incidence_factorisation(self, weighted_er_graph):
        incidence = weighted_er_graph.incidence()
        w = sp.diags(weighted_er_graph.edge_weights)
        reconstructed = (incidence.T @ w @ incidence).toarray()
        assert np.allclose(reconstructed, weighted_er_graph.laplacian().toarray())

    def test_quadratic_form_matches_matrix(self, weighted_er_graph, rng):
        x = rng.standard_normal(weighted_er_graph.num_vertices)
        direct = weighted_er_graph.quadratic_form(x)
        via_matrix = float(x @ weighted_er_graph.laplacian() @ x)
        assert direct == pytest.approx(via_matrix, rel=1e-10)

    def test_quadratic_form_wrong_length(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.quadratic_form(np.zeros(5))

    def test_quadratic_form_constant_vector_zero(self, small_er_graph):
        assert small_er_graph.quadratic_form(np.ones(small_er_graph.num_vertices)) == pytest.approx(0.0)


class TestTransformations:
    def test_select_edges_by_mask(self, weighted_path):
        sub = weighted_path.select_edges(np.array([True, False, True]))
        assert sub.num_edges == 2

    def test_select_edges_by_index(self, weighted_path):
        sub = weighted_path.select_edges(np.array([2]))
        assert sub.num_edges == 1
        assert list(sub.edges())[0] == (2, 3, 4.0)

    def test_select_edges_bad_mask_length(self, weighted_path):
        with pytest.raises(GraphError):
            weighted_path.select_edges(np.array([True]))

    def test_remove_edges(self, weighted_path):
        removed = weighted_path.select_edges(~np.array([True, False, False]))
        assert removed.num_edges == 2
        assert (0, 1) not in removed.edge_weight_map()

    def test_with_weights(self, weighted_path):
        new = weighted_path.with_weights(np.array([5.0, 5.0, 5.0]))
        assert new.total_weight == pytest.approx(15.0)
        # Original untouched (immutability).
        assert weighted_path.total_weight == pytest.approx(7.0)

    def test_scaled(self, weighted_path):
        doubled = weighted_path.scaled(2.0)
        assert doubled.total_weight == pytest.approx(14.0)

    def test_scaled_rejects_nonpositive(self, weighted_path):
        with pytest.raises(GraphError):
            weighted_path.scaled(0.0)

    def test_operator_mul(self, weighted_path):
        assert (2 * weighted_path).total_weight == pytest.approx(14.0)
        assert (weighted_path * 3).total_weight == pytest.approx(21.0)

    def test_union_concatenates_edges(self, triangle_graph):
        doubled = triangle_graph + triangle_graph
        assert doubled.num_edges == 6
        assert doubled.total_weight == pytest.approx(6.0)

    def test_union_requires_same_vertex_count(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.union(Graph(4))

    def test_coalesce_merges_parallel_edges(self):
        g = Graph(3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])
        merged = g.coalesce()
        assert merged.num_edges == 2
        assert merged.edge_weight_map()[(0, 1)] == pytest.approx(3.0)

    def test_coalesce_preserves_laplacian(self, triangle_graph):
        doubled = triangle_graph + triangle_graph
        assert np.allclose(
            doubled.laplacian().toarray(), doubled.coalesce().laplacian().toarray()
        )

    def test_same_edge_set_true_for_permuted(self):
        a = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        b = Graph(4, [2, 0, 1], [3, 1, 2], [3.0, 1.0, 2.0])
        assert a.same_edge_set(b)
        assert a == b

    def test_same_edge_set_false_for_different_weights(self):
        a = Graph(3, [0], [1], [1.0])
        b = Graph(3, [0], [1], [2.0])
        assert not a.same_edge_set(b)

    def test_graph_unhashable(self, triangle_graph):
        with pytest.raises(TypeError):
            hash(triangle_graph)


class TestGraphProperties:
    """Property-based invariants of the container."""

    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_laplacian_quadratic_form_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        mask = u != v
        if not mask.any():
            return
        g = Graph(n, u[mask], v[mask], rng.uniform(0.1, 5.0, size=mask.sum()))
        x = rng.standard_normal(n)
        assert g.quadratic_form(x) >= -1e-9

    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        factor=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_scales_quadratic_form(self, n, seed, factor):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, size=3 * n)
        v = rng.integers(0, n, size=3 * n)
        mask = u != v
        if not mask.any():
            return
        g = Graph(n, u[mask], v[mask], rng.uniform(0.1, 2.0, size=mask.sum()))
        x = rng.standard_normal(n)
        assert g.scaled(factor).quadratic_form(x) == pytest.approx(
            factor * g.quadratic_form(x), rel=1e-9, abs=1e-12
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_union_quadratic_form_adds(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        def random_graph():
            u = rng.integers(0, n, size=20)
            v = rng.integers(0, n, size=20)
            mask = u != v
            return Graph(n, u[mask], v[mask], rng.uniform(0.5, 2.0, size=mask.sum()))
        a, b = random_graph(), random_graph()
        x = rng.standard_normal(n)
        assert (a + b).quadratic_form(x) == pytest.approx(
            a.quadratic_form(x) + b.quadratic_form(x), rel=1e-9, abs=1e-12
        )
