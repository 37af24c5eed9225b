"""Tests for repro.spanners: Baswana–Sen, greedy, bundles, trees, verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.parallel.pram import PRAMTracker
from repro.resistance.stretch import stretch_over_subgraph
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.bundle import bundle_for_epsilon, bundle_size_for_epsilon, t_bundle_spanner
from repro.spanners.greedy import greedy_spanner
from repro.spanners.low_stretch_tree import low_stretch_tree, tree_bundle
from repro.spanners.verification import (
    max_stretch_of_nonspanner_edges,
    repair_spanner,
    verify_spanner,
)


def banded_graph(n: int, band: int, seed: int = 0) -> Graph:
    return gen.banded_graph(n, band, weight_range=(0.5, 2.0), seed=seed)


class TestBaswanaSen:
    def test_stretch_guarantee_er(self, medium_er_graph):
        result = baswana_sen_spanner(medium_er_graph, seed=1)
        assert verify_spanner(medium_er_graph, result)

    def test_stretch_guarantee_weighted(self, weighted_er_graph):
        result = baswana_sen_spanner(weighted_er_graph, seed=2)
        assert verify_spanner(weighted_er_graph, result)

    def test_stretch_guarantee_grid(self, grid_graph_8x8):
        result = baswana_sen_spanner(grid_graph_8x8, seed=3)
        assert verify_spanner(grid_graph_8x8, result)

    def test_spanner_is_subgraph(self, medium_er_graph):
        result = baswana_sen_spanner(medium_er_graph, seed=4)
        assert result.edge_indices.max(initial=-1) < medium_er_graph.num_edges
        original_keys = medium_er_graph.edge_keys()
        assert np.all(np.isin(result.spanner.edge_keys(), original_keys))
        # Weights are preserved.
        assert np.allclose(
            result.spanner.edge_weights,
            medium_er_graph.edge_weights[result.edge_indices],
        )

    def test_spanner_size_reasonable(self):
        """Expected size O(k n^{1+1/k}) ~ O(n log n); check against a generous multiple."""
        g = gen.erdos_renyi_graph(300, 0.25, seed=5, ensure_connected=True)
        result = baswana_sen_spanner(g, seed=6)
        n = g.num_vertices
        budget = 6.0 * n * np.log2(n)
        assert result.spanner.num_edges <= budget
        assert result.spanner.num_edges < g.num_edges  # actually sparser than the input

    def test_spanner_preserves_connectivity(self, medium_er_graph):
        from repro.graphs.connectivity import is_connected

        result = baswana_sen_spanner(medium_er_graph, seed=7)
        assert is_connected(result.spanner)

    def test_small_k_returns_denser_spanner(self, medium_er_graph):
        k1 = baswana_sen_spanner(medium_er_graph, k=1, seed=8)
        # k = 1 means stretch 1: every edge must be kept.
        assert k1.spanner.num_edges == medium_er_graph.num_edges

    def test_k_validation(self, triangle_graph):
        with pytest.raises(GraphError):
            baswana_sen_spanner(triangle_graph, k=0)

    def test_empty_graph(self):
        result = baswana_sen_spanner(Graph(5), seed=0)
        assert result.spanner.num_edges == 0

    def test_single_edge_graph(self):
        g = Graph(2, [0], [1], [3.0])
        result = baswana_sen_spanner(g, seed=0)
        assert result.spanner.num_edges == 1

    def test_cost_accounting_positive(self, medium_er_graph):
        tracker = PRAMTracker()
        result = baswana_sen_spanner(medium_er_graph, seed=9, tracker=tracker)
        assert result.cost.work > 0
        assert result.cost.depth > 0
        assert "spanner/group-min" in tracker.breakdown()

    def test_work_scales_roughly_linearly_in_m(self):
        g_small = gen.erdos_renyi_graph(100, 0.1, seed=1, ensure_connected=True)
        g_large = gen.erdos_renyi_graph(100, 0.4, seed=1, ensure_connected=True)
        w_small = baswana_sen_spanner(g_small, seed=2).cost.work
        w_large = baswana_sen_spanner(g_large, seed=2).cost.work
        ratio = g_large.num_edges / g_small.num_edges
        assert w_large / w_small < 4 * ratio

    def test_reproducible_with_seed(self, medium_er_graph):
        a = baswana_sen_spanner(medium_er_graph, seed=11)
        b = baswana_sen_spanner(medium_er_graph, seed=11)
        assert np.array_equal(a.edge_indices, b.edge_indices)

    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=15, deadline=None)
    def test_stretch_property_random_weighted_graphs(self, seed):
        g = gen.erdos_renyi_graph(
            35, 0.3, seed=seed, weight_range=(0.5, 4.0), ensure_connected=True
        )
        result = baswana_sen_spanner(g, seed=seed + 1)
        max_stretch, _ = max_stretch_of_nonspanner_edges(g, result.edge_indices)
        assert max_stretch <= result.stretch_target + 1e-9

    @pytest.mark.parametrize("seed", [0, 7])
    def test_stretch_verification_still_certifies_on_banded(self, seed):
        """End-to-end: vectorized spanner on a banded graph passes verification."""
        g = banded_graph(120, 6, seed=seed)
        result = baswana_sen_spanner(g, seed=seed + 1)
        assert verify_spanner(g, result)


class TestGreedySpanner:
    def test_stretch_guarantee(self, small_er_graph):
        result = greedy_spanner(small_er_graph)
        assert verify_spanner(small_er_graph, result)

    def test_weighted_stretch_guarantee(self, weighted_er_graph):
        result = greedy_spanner(weighted_er_graph, k=3)
        assert verify_spanner(weighted_er_graph, result)

    def test_greedy_no_sparser_than_tree(self, small_er_graph):
        result = greedy_spanner(small_er_graph)
        assert result.spanner.num_edges >= small_er_graph.num_vertices - 1

    def test_k1_keeps_everything(self, triangle_graph):
        result = greedy_spanner(triangle_graph, k=1)
        assert result.spanner.num_edges == 3

    def test_deterministic(self, small_er_graph):
        a = greedy_spanner(small_er_graph)
        b = greedy_spanner(small_er_graph)
        assert np.array_equal(a.edge_indices, b.edge_indices)

    def test_k_validation(self, triangle_graph):
        with pytest.raises(GraphError):
            greedy_spanner(triangle_graph, k=0)

    def test_greedy_at_most_baswana_sen_size_on_dense_graph(self):
        """Greedy is the size-optimal classical construction; it should not be larger."""
        g = gen.erdos_renyi_graph(120, 0.5, seed=3, ensure_connected=True)
        greedy = greedy_spanner(g)
        randomized = baswana_sen_spanner(g, seed=4)
        assert greedy.spanner.num_edges <= randomized.spanner.num_edges


class TestBundle:
    def test_components_are_edge_disjoint(self, medium_er_graph):
        bundle = t_bundle_spanner(medium_er_graph, t=3, seed=0)
        seen = np.concatenate(bundle.component_edge_indices)
        assert len(seen) == len(np.unique(seen))

    def test_bundle_union_matches_components(self, medium_er_graph):
        bundle = t_bundle_spanner(medium_er_graph, t=3, seed=1)
        union = np.unique(np.concatenate(bundle.component_edge_indices))
        assert np.array_equal(union, bundle.edge_indices)

    def test_each_component_spans_remaining_graph(self, medium_er_graph):
        """H_i must be a spanner of G minus the previous components (Definition 1)."""
        bundle = t_bundle_spanner(medium_er_graph, t=3, seed=2)
        target = 2 * np.ceil(np.log2(medium_er_graph.num_vertices)) - 1
        removed = np.zeros(medium_er_graph.num_edges, dtype=bool)
        for component in bundle.component_edge_indices:
            remaining = medium_er_graph.select_edges(~removed)
            remaining_ids = np.flatnonzero(~removed)
            local = np.flatnonzero(np.isin(remaining_ids, component))
            spanner = remaining.select_edges(local)
            outside_local = np.setdiff1d(np.arange(remaining.num_edges), local)
            if outside_local.size:
                stretches = stretch_over_subgraph(remaining, spanner, outside_local)
                assert stretches.max() <= target + 1e-9
            removed[component] = True

    def test_bundle_size_grows_with_t(self, medium_er_graph):
        small = t_bundle_spanner(medium_er_graph, t=1, seed=3)
        large = t_bundle_spanner(medium_er_graph, t=4, seed=3)
        assert large.num_edges > small.num_edges

    def test_bundle_exhaustion_on_sparse_graph(self):
        tree = gen.path_graph(30)
        bundle = t_bundle_spanner(tree, t=5, seed=0)
        assert bundle.exhausted
        assert bundle.num_edges == tree.num_edges
        assert bundle.t <= 5

    def test_requested_t_recorded(self, small_er_graph):
        bundle = t_bundle_spanner(small_er_graph, t=2, seed=1)
        assert bundle.requested_t == 2
        assert bundle.t <= 2

    def test_t_validation(self, triangle_graph):
        with pytest.raises(GraphError):
            t_bundle_spanner(triangle_graph, t=0)

    def test_bundle_size_for_epsilon_formula(self):
        assert bundle_size_for_epsilon(1024, 1.0, constant=24.0) == 2400
        assert bundle_size_for_epsilon(1024, 0.5, constant=24.0) == 9600

    def test_bundle_size_rejects_bad_epsilon(self):
        with pytest.raises(GraphError):
            bundle_size_for_epsilon(100, 0.0)

    def test_bundle_for_epsilon_uses_formula(self, triangle_graph):
        result = bundle_for_epsilon(triangle_graph, epsilon=1.0, constant=1.0)
        assert result.requested_t == bundle_size_for_epsilon(3, 1.0, constant=1.0)

    def test_cost_accumulates_over_components(self, medium_er_graph):
        one = t_bundle_spanner(medium_er_graph, t=1, seed=5)
        three = t_bundle_spanner(medium_er_graph, t=3, seed=5)
        assert three.cost.work > one.cost.work

    def test_bundle_components_on_banded_certify(self):
        g = banded_graph(60, 4, seed=5)
        bundle = t_bundle_spanner(g, t=2, seed=3)
        target = 2 * np.ceil(np.log2(g.num_vertices)) - 1
        removed = np.zeros(g.num_edges, dtype=bool)
        for component in bundle.component_edge_indices:
            remaining = g.select_edges(~removed)
            remaining_ids = np.flatnonzero(~removed)
            local = np.flatnonzero(np.isin(remaining_ids, component))
            spanner = remaining.select_edges(local)
            outside_local = np.setdiff1d(np.arange(remaining.num_edges), local)
            if outside_local.size:
                stretches = stretch_over_subgraph(remaining, spanner, outside_local)
                assert stretches.max() <= target + 1e-9
            removed[component] = True


class TestLowStretchTree:
    def test_tree_is_spanning_forest(self, medium_er_graph):
        indices = low_stretch_tree(medium_er_graph, seed=0)
        tree = medium_er_graph.select_edges(indices)
        from repro.graphs.connectivity import is_connected

        assert tree.num_edges == medium_er_graph.num_vertices - 1
        assert is_connected(tree)

    def test_tree_on_disconnected_graph(self, triangle_graph):
        from repro.graphs.operations import disjoint_union

        g = disjoint_union(triangle_graph, triangle_graph)
        indices = low_stretch_tree(g, seed=1)
        assert len(indices) == 4  # n - components = 6 - 2

    def test_empty_graph(self):
        assert low_stretch_tree(Graph(4), seed=0).shape == (0,)

    def test_candidate_validation(self, triangle_graph):
        with pytest.raises(GraphError):
            low_stretch_tree(triangle_graph, num_center_candidates=0)

    def test_tree_bundle_components_smaller_than_spanner_bundle(self, medium_er_graph):
        """Remark 2: tree components have n-1 edges vs O(n log n) for spanners."""
        trees = tree_bundle(medium_er_graph, t=2, seed=3)
        spanners = t_bundle_spanner(medium_er_graph, t=2, seed=3)
        assert trees.num_edges < spanners.num_edges

    def test_tree_bundle_components_edge_disjoint(self, medium_er_graph):
        bundle = tree_bundle(medium_er_graph, t=3, seed=4)
        seen = np.concatenate(bundle.component_edge_indices)
        assert len(seen) == len(np.unique(seen))

    def test_tree_bundle_t_validation(self, triangle_graph):
        with pytest.raises(GraphError):
            tree_bundle(triangle_graph, t=0)


class TestVerificationAndRepair:
    def test_max_stretch_zero_when_all_edges_in_spanner(self, triangle_graph):
        max_stretch, stretches = max_stretch_of_nonspanner_edges(
            triangle_graph, np.arange(3)
        )
        assert max_stretch == 0.0
        assert stretches.shape == (0,)

    def test_verify_rejects_bad_spanner(self, medium_er_graph):
        """A single tree edge set is generally NOT a 2log n spanner of a dense ER graph... but
        a star certainly isn't a low-stretch spanner of a long cycle."""
        cycle = gen.cycle_graph(64)
        # Keep only one edge: everything else has infinite stretch.
        baswana_sen_spanner(cycle, seed=0)
        fake_indices = np.array([0])
        max_stretch, _ = max_stretch_of_nonspanner_edges(cycle, fake_indices)
        assert max_stretch > 2 * np.log2(64)

    def test_repair_fixes_violations(self):
        cycle = gen.cycle_graph(64)
        sparse_indices = np.array([0])
        target = 2 * np.log2(64)
        repaired = repair_spanner(cycle, sparse_indices, target)
        max_stretch, _ = max_stretch_of_nonspanner_edges(cycle, repaired)
        assert max_stretch <= target + 1e-9
        assert len(repaired) > 1

    def test_repair_no_op_for_valid_spanner(self, small_er_graph):
        result = baswana_sen_spanner(small_er_graph, seed=2)
        repaired = repair_spanner(
            small_er_graph, result.edge_indices, result.stretch_target
        )
        assert np.array_equal(repaired, np.unique(result.edge_indices))

    def test_repair_with_full_spanner(self, triangle_graph):
        repaired = repair_spanner(triangle_graph, np.arange(3), 1.0)
        assert np.array_equal(repaired, np.arange(3))


class TestDistributedBundleSpanner:
    """The per-shard unit of work of the distributed sparsifier."""

    def test_components_are_edge_disjoint(self, small_er_graph):
        from repro.spanners.distributed_spanner import distributed_bundle_spanner

        result = distributed_bundle_spanner(small_er_graph.coalesce(), t=3, seed=1)
        assert result.components_built == 3
        seen = np.concatenate(result.component_edge_indices)
        assert seen.shape[0] == np.unique(seen).shape[0]
        assert np.array_equal(result.edge_indices, np.unique(seen))
        assert result.completed
        assert result.cost.rounds > 0

    def test_pre_split_seeds_match_single_seed(self, small_er_graph):
        from repro.spanners.distributed_spanner import distributed_bundle_spanner
        from repro.utils.rng import as_rng, split_rng

        simple = small_er_graph.coalesce()
        by_seed = distributed_bundle_spanner(simple, t=2, seed=5)
        by_streams = distributed_bundle_spanner(
            simple, t=2, component_seeds=split_rng(as_rng(5), 2)
        )
        assert np.array_equal(by_seed.edge_indices, by_streams.edge_indices)

    def test_rejects_bad_t_and_short_seed_list(self, small_er_graph):
        from repro.spanners.distributed_spanner import distributed_bundle_spanner
        from repro.utils.rng import as_rng, split_rng

        simple = small_er_graph.coalesce()
        with pytest.raises(GraphError):
            distributed_bundle_spanner(simple, t=0)
        with pytest.raises(GraphError):
            distributed_bundle_spanner(simple, t=3, component_seeds=split_rng(as_rng(0), 2))

    def test_exhausts_small_graph(self):
        from repro.spanners.distributed_spanner import distributed_bundle_spanner

        path = gen.path_graph(12)
        result = distributed_bundle_spanner(path, t=4, seed=0)
        # A tree is its own spanner: one component absorbs everything.
        assert result.components_built == 1
        assert result.edge_indices.shape[0] == path.num_edges

    def test_edge_order_independent(self, small_er_graph):
        """The protocol runs on the coalesced (key-sorted) graph, so a
        permuted edge order must select the same edge *keys* per component."""
        from repro.spanners.distributed_spanner import distributed_bundle_spanner

        simple = small_er_graph.coalesce()
        rng = np.random.default_rng(123)
        perm = rng.permutation(simple.num_edges)
        shuffled = simple.select_edges(perm)

        sorted_result = distributed_bundle_spanner(simple, t=2, seed=9)
        shuffled_result = distributed_bundle_spanner(shuffled, t=2, seed=9)
        assert sorted_result.components_built == shuffled_result.components_built
        for a, b in zip(
            sorted_result.component_edge_indices,
            shuffled_result.component_edge_indices,
        ):
            keys_a = np.sort(simple.edge_keys()[a])
            keys_b = np.sort(shuffled.edge_keys()[b])
            assert np.array_equal(keys_a, keys_b)
