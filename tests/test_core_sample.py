"""Tests for Algorithm 1 (PARALLELSAMPLE)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.exceptions import SparsificationError
from repro.graphs import generators as gen
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph
from repro.parallel.pram import PRAMTracker


PRACTICAL = SparsifierConfig.practical()


class TestMechanics:
    def test_output_contains_bundle_at_original_weight(self, medium_er_graph):
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=0)
        weights = result.sparsifier.edge_weight_map()
        original = medium_er_graph.edge_weight_map()
        for idx in result.bundle_edge_indices:
            u, v = int(medium_er_graph.edge_u[idx]), int(medium_er_graph.edge_v[idx])
            assert weights[(u, v)] >= original[(u, v)] - 1e-12

    def test_sampled_edges_reweighted_by_four(self, medium_er_graph):
        config = PRACTICAL
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=config, seed=1)
        # Edges kept by sampling but not in the bundle carry weight 4 w_e.
        sampled_only = np.setdiff1d(result.sampled_edge_indices, result.bundle_edge_indices)
        if sampled_only.size == 0:
            pytest.skip("no purely-sampled edges this seed")
        weights = result.sparsifier.edge_weight_map()
        for idx in sampled_only[:20]:
            u, v = int(medium_er_graph.edge_u[idx]), int(medium_er_graph.edge_v[idx])
            expected = config.weight_multiplier * medium_er_graph.edge_weights[idx]
            assert weights[(u, v)] == pytest.approx(expected)

    def test_output_edges_subset_of_input_edges(self, medium_er_graph):
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=2)
        assert np.all(np.isin(result.sparsifier.edge_keys(), medium_er_graph.edge_keys()))

    def test_non_bundle_edges_kept_at_roughly_quarter_rate(self):
        g = gen.erdos_renyi_graph(150, 0.4, seed=3, ensure_connected=True)
        config = SparsifierConfig.practical(bundle_t=1)
        result = parallel_sample(g, epsilon=0.5, config=config, seed=4)
        outside = g.num_edges - len(result.bundle_edge_indices)
        kept = len(result.sampled_edge_indices)
        rate = kept / outside
        assert 0.18 < rate < 0.33

    def test_expectation_preserves_total_weight(self):
        """E[total weight] is preserved; check the realised value is in a wide band."""
        g = gen.erdos_renyi_graph(150, 0.4, seed=5, ensure_connected=True)
        config = SparsifierConfig.practical(bundle_t=1)
        totals = []
        for seed in range(5):
            result = parallel_sample(g, epsilon=0.5, config=config, seed=seed)
            totals.append(result.sparsifier.total_weight)
        mean_total = np.mean(totals)
        assert 0.8 * g.total_weight < mean_total < 1.2 * g.total_weight

    def test_reduction_ratio_field(self, medium_er_graph):
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=6)
        assert result.reduction_ratio == pytest.approx(
            result.output_edges / result.input_edges
        )

    def test_epsilon_validation(self, medium_er_graph):
        with pytest.raises(SparsificationError):
            parallel_sample(medium_er_graph, epsilon=0.0)

    def test_reproducibility(self, medium_er_graph):
        a = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=42)
        b = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=42)
        assert a.sparsifier.same_edge_set(b.sparsifier)

    def test_tracker_receives_work(self, medium_er_graph):
        tracker = PRAMTracker()
        parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=7, tracker=tracker)
        assert tracker.work > 0
        assert "sample/bernoulli" in tracker.breakdown()


class TestDegenerateCases:
    def test_theory_constants_on_small_graph_are_degenerate(self, small_er_graph):
        """With the paper's constants the bundle swallows a laptop-scale graph."""
        result = parallel_sample(
            small_er_graph, epsilon=0.5, config=SparsifierConfig.theory(), seed=0
        )
        assert result.degenerate
        assert result.sparsifier.same_edge_set(small_er_graph)

    def test_tiny_graph_returned_unchanged(self):
        g = Graph(2, [0], [1], [1.0])
        result = parallel_sample(g, epsilon=0.5, seed=0)
        assert result.degenerate
        assert result.output_edges == 1

    def test_tree_input_degenerate(self):
        tree = gen.path_graph(50)
        result = parallel_sample(tree, epsilon=0.5, config=PRACTICAL, seed=1)
        assert result.degenerate
        assert result.sparsifier.same_edge_set(tree)

    def test_empty_graph(self):
        result = parallel_sample(Graph(5), epsilon=0.5, seed=0)
        assert result.degenerate
        assert result.output_edges == 0


class TestQuality:
    def test_connectivity_preserved(self, medium_er_graph):
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=8)
        assert is_connected(result.sparsifier)

    def test_certificate_bounded(self, medium_er_graph):
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=PRACTICAL, seed=9)
        cert = certify_approximation(medium_er_graph, result.sparsifier)
        # Practical constants: not necessarily within epsilon, but well-bounded.
        assert cert.lower > 0.25
        assert cert.upper < 2.5

    def test_larger_bundle_improves_quality(self):
        g = gen.erdos_renyi_graph(150, 0.3, seed=10, ensure_connected=True)
        eps_small = []
        eps_large = []
        for seed in range(3):
            r1 = parallel_sample(g, config=SparsifierConfig.practical(bundle_t=1), seed=seed)
            r2 = parallel_sample(g, config=SparsifierConfig.practical(bundle_t=5), seed=seed)
            eps_small.append(certify_approximation(g, r1.sparsifier).epsilon_achieved)
            eps_large.append(certify_approximation(g, r2.sparsifier).epsilon_achieved)
        assert np.mean(eps_large) < np.mean(eps_small)

    def test_dumbbell_bridge_never_lost(self, dumbbell):
        """The bridge edges are in every spanner, so the sparsifier keeps them."""
        for seed in range(5):
            result = parallel_sample(dumbbell, epsilon=0.5, config=PRACTICAL, seed=seed)
            assert is_connected(result.sparsifier)

    def test_certify_stretch_mode_runs(self, medium_er_graph):
        config = SparsifierConfig.practical(certify_stretch=True, bundle_t=2)
        result = parallel_sample(medium_er_graph, epsilon=0.5, config=config, seed=11)
        assert result.output_edges > 0

    def test_tree_bundle_mode_produces_smaller_output(self):
        g = gen.erdos_renyi_graph(150, 0.3, seed=12, ensure_connected=True)
        spanner_cfg = SparsifierConfig.practical(bundle_t=3)
        tree_cfg = SparsifierConfig.practical(bundle_t=3, use_tree_bundle=True)
        r_spanner = parallel_sample(g, config=spanner_cfg, seed=13)
        r_tree = parallel_sample(g, config=tree_cfg, seed=13)
        assert r_tree.output_edges < r_spanner.output_edges

    @given(seed=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=8, deadline=None)
    def test_sparsifier_always_psd_dominated_sanely(self, seed):
        """Property: the certificate bounds are positive and finite for connected inputs."""
        g = gen.erdos_renyi_graph(60, 0.3, seed=seed, ensure_connected=True)
        result = parallel_sample(g, epsilon=0.5, config=PRACTICAL, seed=seed + 1)
        cert = certify_approximation(g, result.sparsifier)
        assert 0 < cert.lower <= cert.upper < 10
