"""Tests for repro.resistance (exact, approximate, stretch, Lemma 1 bounds)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union
from repro.resistance.approx import approximate_effective_resistances_detailed
from repro.resistance.exact import (
    effective_resistances_all_edges,
    effective_resistances_of_pairs,
    leverage_scores,
)
from repro.resistance.stretch import (
    bundle_leverage_bound,
    spanner_stretch_bound,
    stretch_over_subgraph,
)
from repro.spanners.bundle import t_bundle_spanner


class TestExactResistance:
    def test_single_edge(self):
        g = Graph(2, [0], [1], [4.0])
        assert effective_resistances_of_pairs(g, [(0, 1)])[0] == pytest.approx(0.25)

    def test_series_path(self):
        """Resistors in series add: R = sum 1/w."""
        g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 4.0])
        assert effective_resistances_of_pairs(g, [(0, 3)])[0] == pytest.approx(1.0 + 0.5 + 0.25)

    def test_parallel_edges(self):
        """Two parallel unit edges halve the resistance."""
        g = Graph(2, [0, 0], [1, 1], [1.0, 1.0])
        assert effective_resistances_of_pairs(g, [(0, 1)])[0] == pytest.approx(0.5)

    def test_triangle(self, triangle_graph):
        # Edge in a unit triangle: 1 || 2 = 2/3.
        assert effective_resistances_of_pairs(triangle_graph, [(0, 1)])[0] == pytest.approx(2.0 / 3.0)

    def test_complete_graph_formula(self):
        # K_n with unit weights: R_uv = 2/n for every pair.
        n = 7
        g = gen.complete_graph(n)
        assert effective_resistances_of_pairs(g, [(2, 5)])[0] == pytest.approx(2.0 / n)

    def test_pinv_and_solve_agree(self, weighted_er_graph):
        pairs = [(0, 5), (3, 17), (10, 40)]
        by_pinv = effective_resistances_of_pairs(weighted_er_graph, pairs, method="pinv")
        by_solve = effective_resistances_of_pairs(weighted_er_graph, pairs, method="solve")
        assert np.allclose(by_pinv, by_solve, rtol=1e-5)

    def test_all_edges_matches_pairwise(self, small_er_graph):
        all_res = effective_resistances_all_edges(small_er_graph)
        pairs = np.stack([small_er_graph.edge_u, small_er_graph.edge_v], axis=1)
        pairwise = effective_resistances_of_pairs(small_er_graph, pairs)
        assert np.allclose(all_res, pairwise)

    def test_disconnected_pair_raises(self, triangle_graph):
        g = disjoint_union(triangle_graph, triangle_graph)
        with pytest.raises(DisconnectedGraphError):
            effective_resistances_of_pairs(g, [(0, 4)])

    def test_self_pair_rejected(self, triangle_graph):
        with pytest.raises(GraphError):
            effective_resistances_of_pairs(triangle_graph, [(1, 1)])

    def test_bad_pair_shape(self, triangle_graph):
        with pytest.raises(GraphError):
            effective_resistances_of_pairs(triangle_graph, [(0, 1, 2)])

    def test_non_integral_pair_rejected(self):
        # Truncating would answer R(0, 2) for a pair nobody asked about.
        with pytest.raises(GraphError, match="integers"):
            effective_resistances_of_pairs(gen.path_graph(4), [(0.5, 2.9)])

    def test_integral_float_pair_accepted(self):
        assert effective_resistances_of_pairs(gen.path_graph(4), [(0.0, 2.0)])[0] == pytest.approx(2.0)

    def test_out_of_range_pair(self, triangle_graph):
        with pytest.raises(GraphError):
            effective_resistances_of_pairs(triangle_graph, [(0, 9)])

    def test_unknown_method(self, triangle_graph):
        with pytest.raises(ValueError):
            effective_resistances_of_pairs(triangle_graph, [(0, 1)], method="magic")

    def test_empty_pairs(self, triangle_graph):
        assert effective_resistances_of_pairs(triangle_graph, np.zeros((0, 2))).shape == (0,)

    def test_resistance_bounded_by_direct_edge(self, weighted_er_graph):
        """R_e <= 1/w_e for every edge (the direct edge is one available path)."""
        res = effective_resistances_all_edges(weighted_er_graph)
        assert np.all(res <= 1.0 / weighted_er_graph.edge_weights + 1e-9)

    def test_rayleigh_monotonicity(self, small_er_graph):
        """Removing edges can only increase effective resistances."""
        keep = np.ones(small_er_graph.num_edges, dtype=bool)
        keep[::5] = False
        sub = small_er_graph.select_edges(keep)
        # Compare on edges present in both graphs.
        pairs = np.stack([sub.edge_u, sub.edge_v], axis=1)
        before = effective_resistances_of_pairs(small_er_graph, pairs)
        after = effective_resistances_of_pairs(sub, pairs)
        assert np.all(after >= before - 1e-9)


class TestLeverageScores:
    def test_sum_equals_n_minus_one(self, small_er_graph):
        """Leverage scores of a connected graph sum to n - 1 (the Laplacian rank)."""
        scores = leverage_scores(small_er_graph)
        assert scores.sum() == pytest.approx(small_er_graph.num_vertices - 1, rel=1e-6)

    def test_scores_in_unit_interval(self, weighted_er_graph):
        scores = leverage_scores(weighted_er_graph)
        assert np.all(scores > 0)
        assert np.all(scores <= 1.0 + 1e-9)

    def test_bridge_has_leverage_one(self, dumbbell):
        scores = leverage_scores(dumbbell)
        # The path (bridge) edges of a dumbbell are cut edges: leverage exactly 1.
        assert scores.max() == pytest.approx(1.0, abs=1e-8)

    def test_tree_edges_all_leverage_one(self):
        tree = gen.path_graph(10)
        assert np.allclose(leverage_scores(tree), 1.0)

    def test_weight_invariance_of_sum(self, weighted_er_graph):
        """Rescaling all weights leaves leverage scores unchanged."""
        scaled = weighted_er_graph.scaled(3.7)
        assert np.allclose(
            leverage_scores(weighted_er_graph), leverage_scores(scaled), rtol=1e-8
        )


class TestApproximateResistance:
    def test_close_to_exact(self, small_er_graph):
        exact = effective_resistances_all_edges(small_er_graph)
        approx = approximate_effective_resistances_detailed(small_er_graph, delta=0.3, seed=0).resistances
        ratio = approx / exact
        # JL approximation: most edges within (1 +- delta); allow modest tails.
        assert np.median(np.abs(ratio - 1.0)) < 0.3
        assert ratio.min() > 0.4
        assert ratio.max() < 2.5

    def test_explicit_direction_count(self, small_er_graph):
        # 5 directions carry no JL guarantee at this n: the sketch warns.
        with pytest.warns(UserWarning, match="guarantee"):
            approx = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=5, seed=1
            ).resistances
        assert approx.shape == (small_er_graph.num_edges,)
        assert np.all(approx >= 0)

    def test_empty_graph(self):
        assert approximate_effective_resistances_detailed(Graph(3)).resistances.shape == (0,)

    def test_bad_delta(self, triangle_graph):
        with pytest.raises(GraphError):
            approximate_effective_resistances_detailed(triangle_graph, delta=1.5)

    def test_reproducible_with_seed(self, small_er_graph):
        with pytest.warns(UserWarning, match="guarantee"):
            a, b = (
                approximate_effective_resistances_detailed(small_er_graph, num_directions=8, seed=7).resistances
                for _ in range(2)
            )
        assert np.allclose(a, b)


class TestStretch:
    def test_stretch_over_subgraph_direct_edge(self, triangle_graph):
        """If the subgraph contains the edge itself the stretch is 1."""
        stretches = stretch_over_subgraph(triangle_graph, triangle_graph)
        assert np.allclose(stretches, 1.0)

    def test_stretch_over_missing_connection_is_inf(self):
        g = Graph(3, [0, 1], [1, 2], [1.0, 1.0])
        empty = Graph(3)
        stretches = stretch_over_subgraph(g, empty)
        assert np.all(np.isinf(stretches))

    def test_stretch_over_tree_path(self):
        # Cycle C_4 over a path subgraph: the chord (0,3) must go around, stretch 3.
        cycle = gen.cycle_graph(4)
        tree = cycle.select_edges(np.array([0, 1, 2]))  # path 0-1-2-3
        stretches = stretch_over_subgraph(cycle, tree)
        chord_index = 3
        assert stretches[chord_index] == pytest.approx(3.0)

    def test_stretch_respects_weights(self):
        # Edge (0,2) of weight 4; path 0-1-2 with weights 1,1 has resistive length 2.
        g = Graph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 4.0])
        sub = g.select_edges(np.array([0, 1]))
        stretches = stretch_over_subgraph(g, sub, np.array([2]))
        assert stretches[0] == pytest.approx(8.0)

    def test_subgraph_vertex_mismatch(self, triangle_graph):
        with pytest.raises(GraphError):
            stretch_over_subgraph(triangle_graph, Graph(5))

    def test_spanner_stretch_bound_value(self):
        assert spanner_stretch_bound(1024) == pytest.approx(20.0)

    def test_bundle_leverage_bound_decreases_in_t(self):
        assert bundle_leverage_bound(256, 4) == pytest.approx(bundle_leverage_bound(256, 1) / 4)

    def test_bundle_leverage_bound_rejects_bad_t(self):
        with pytest.raises(GraphError):
            bundle_leverage_bound(100, 0)


class TestLemmaOne:
    """Empirical validation of Lemma 1: non-bundle edges have small leverage."""

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_leverage_bound_holds(self, medium_er_graph, t):
        bundle = t_bundle_spanner(medium_er_graph, t=t, seed=17)
        scores = leverage_scores(medium_er_graph)
        outside = np.ones(medium_er_graph.num_edges, dtype=bool)
        outside[bundle.edge_indices] = False
        if not outside.any():
            pytest.skip("bundle absorbed the whole graph")
        bound = bundle_leverage_bound(medium_er_graph.num_vertices, bundle.t)
        assert scores[outside].max() <= bound + 1e-9

    def test_leverage_bound_weighted_graph(self, weighted_er_graph):
        bundle = t_bundle_spanner(weighted_er_graph, t=2, seed=5)
        scores = leverage_scores(weighted_er_graph)
        outside = np.ones(weighted_er_graph.num_edges, dtype=bool)
        outside[bundle.edge_indices] = False
        if not outside.any():
            pytest.skip("bundle absorbed the whole graph")
        bound = bundle_leverage_bound(weighted_er_graph.num_vertices, bundle.t)
        assert scores[outside].max() <= bound + 1e-9

    @given(seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=10, deadline=None)
    def test_leverage_bound_random_graphs(self, seed):
        g = gen.erdos_renyi_graph(40, 0.3, seed=seed, ensure_connected=True)
        bundle = t_bundle_spanner(g, t=2, seed=seed + 1)
        outside = np.ones(g.num_edges, dtype=bool)
        outside[bundle.edge_indices] = False
        if not outside.any():
            return
        scores = leverage_scores(g)
        bound = bundle_leverage_bound(g.num_vertices, bundle.t)
        assert scores[outside].max() <= bound + 1e-9
