"""Tests for the baseline sparsifiers (Spielman–Srivastava, uniform, Kapralov–Panigrahi)."""

import numpy as np
import pytest

from repro.baselines.kapralov_panigrahi import kapralov_panigrahi_sparsify, kp_sample_count
from repro.baselines.spielman_srivastava import spielman_srivastava_sparsify, ss_sample_count
from repro.baselines.uniform import uniform_probability_for_epsilon, uniform_sparsify
from repro.core.certificates import certify_approximation
from repro.exceptions import SparsificationError
from repro.graphs import generators as gen
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph


class TestSpielmanSrivastava:
    def test_quality_on_dense_graph(self):
        g = gen.erdos_renyi_graph(150, 0.4, seed=0, ensure_connected=True)
        result = spielman_srivastava_sparsify(g, epsilon=0.5, seed=1)
        cert = certify_approximation(g, result.sparsifier)
        assert cert.epsilon_achieved < 0.5
        assert is_connected(result.sparsifier)

    def test_output_edges_bounded_by_samples(self, medium_er_graph):
        result = spielman_srivastava_sparsify(medium_er_graph, epsilon=0.5, num_samples=500, seed=2)
        assert result.output_edges <= 500
        assert result.sparsifier.num_edges == result.output_edges

    def test_sample_count_formula(self):
        assert ss_sample_count(100, 1.0, constant=1.0) == int(np.ceil(100 * np.log(100)))
        # 1/eps^2 dependence (up to ceiling rounding).
        ratio = ss_sample_count(100, 0.5, constant=1.0) / ss_sample_count(100, 1.0, constant=1.0)
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_sample_count_rejects_bad_epsilon(self):
        with pytest.raises(SparsificationError):
            ss_sample_count(100, 0.0)

    def test_probabilities_sum_to_one(self, small_er_graph):
        result = spielman_srivastava_sparsify(small_er_graph, epsilon=0.5, seed=3)
        assert result.probabilities.sum() == pytest.approx(1.0)

    def test_approximate_resistance_path(self, small_er_graph):
        result = spielman_srivastava_sparsify(
            small_er_graph, epsilon=0.5, use_approximate_resistances=True, seed=4
        )
        assert result.solver_based
        cert = certify_approximation(small_er_graph, result.sparsifier)
        assert cert.epsilon_achieved < 1.0

    def test_total_weight_roughly_preserved(self):
        g = gen.erdos_renyi_graph(120, 0.3, seed=5, ensure_connected=True)
        result = spielman_srivastava_sparsify(g, epsilon=0.5, seed=6)
        assert 0.7 * g.total_weight < result.sparsifier.total_weight < 1.3 * g.total_weight

    def test_dumbbell_bridge_survives(self, dumbbell):
        result = spielman_srivastava_sparsify(dumbbell, epsilon=0.5, seed=7)
        assert is_connected(result.sparsifier)

    def test_empty_graph(self):
        result = spielman_srivastava_sparsify(Graph(3), seed=0)
        assert result.sparsifier.num_edges == 0

    def test_reproducible(self, small_er_graph):
        a = spielman_srivastava_sparsify(small_er_graph, seed=9)
        b = spielman_srivastava_sparsify(small_er_graph, seed=9)
        assert a.sparsifier.same_edge_set(b.sparsifier)


class TestUniform:
    def test_expected_rate(self):
        g = gen.erdos_renyi_graph(100, 0.4, seed=0)
        result = uniform_sparsify(g, probability=0.25, seed=1)
        rate = result.output_edges / result.input_edges
        assert 0.18 < rate < 0.32

    def test_weights_rescaled(self, small_er_graph):
        result = uniform_sparsify(small_er_graph, probability=0.5, seed=2)
        assert np.allclose(result.sparsifier.edge_weights, 2.0)

    def test_probability_one_keeps_everything(self, small_er_graph):
        result = uniform_sparsify(small_er_graph, probability=1.0, seed=0)
        assert result.sparsifier.same_edge_set(small_er_graph)

    def test_probability_validation(self, small_er_graph):
        with pytest.raises(SparsificationError):
            uniform_sparsify(small_er_graph, probability=0.0)

    def test_uniform_breaks_dumbbell_often(self, dumbbell):
        """Without a certificate the bridge is frequently dropped — the failure
        mode the bundle exists to prevent."""
        disconnections = 0
        for seed in range(12):
            result = uniform_sparsify(dumbbell, probability=0.25, seed=seed)
            if not is_connected(result.sparsifier):
                disconnections += 1
        assert disconnections > 0


class TestUniformEpsilonPath:
    def test_epsilon_derives_probability(self):
        g = gen.erdos_renyi_graph(150, 0.4, seed=0, ensure_connected=True)
        result = uniform_sparsify(g, epsilon=0.5, seed=1)
        assert result.epsilon == 0.5
        assert result.probability == uniform_probability_for_epsilon(g, 0.5)
        assert 0 < result.probability <= 1

    def test_epsilon_budget_matches_ss_budget(self):
        # The derived keep-probability targets the SS sample count, so the
        # expected kept-edge count matches the importance samplers' budget.
        g = gen.erdos_renyi_graph(150, 0.4, seed=0, ensure_connected=True)
        p = uniform_probability_for_epsilon(g, 0.5)
        assert p * g.num_edges == pytest.approx(
            min(g.num_edges, ss_sample_count(g.num_vertices, 0.5))
        )

    def test_sparse_graph_keeps_everything(self):
        g = gen.grid_graph(6, 6)  # far below the eps budget
        assert uniform_probability_for_epsilon(g, 0.5) == 1.0

    def test_probability_and_epsilon_are_exclusive(self, small_er_graph):
        with pytest.raises(SparsificationError):
            uniform_sparsify(small_er_graph, probability=0.5, epsilon=0.5)

    def test_epsilon_validation(self, small_er_graph):
        with pytest.raises(SparsificationError):
            uniform_sparsify(small_er_graph, epsilon=0.0)

    def test_default_still_quarter(self, small_er_graph):
        assert uniform_sparsify(small_er_graph, seed=0).probability == 0.25


class TestUnifiedResultAccessors:
    """All three baseline results expose the same accessor set."""

    def _results(self, graph):
        return [
            spielman_srivastava_sparsify(graph, epsilon=0.5, seed=1),
            uniform_sparsify(graph, probability=0.5, seed=1),
            kapralov_panigrahi_sparsify(graph, epsilon=0.5, seed=1),
        ]

    def test_shared_accessors(self, small_er_graph):
        for result in self._results(small_er_graph):
            assert result.input_edges == small_er_graph.num_edges
            assert result.output_edges == result.sparsifier.num_edges
            assert result.input_edges / result.output_edges >= 1.0


class TestKapralovPanigrahi:
    def test_quality_reasonable(self):
        g = gen.erdos_renyi_graph(120, 0.4, seed=0, ensure_connected=True)
        result = kapralov_panigrahi_sparsify(g, epsilon=0.5, seed=1)
        cert = certify_approximation(g, result.sparsifier)
        assert cert.epsilon_achieved < 1.0
        assert is_connected(result.sparsifier)

    def test_sample_count_eps_fourth_dependence(self):
        assert kp_sample_count(256, 0.5, constant=1.0) == 16 * kp_sample_count(256, 1.0, constant=1.0)

    def test_sample_count_rejects_bad_epsilon(self):
        with pytest.raises(SparsificationError):
            kp_sample_count(100, -1.0)

    def test_upper_bounds_dominate_true_resistances(self, small_er_graph):
        from repro.resistance.exact import effective_resistances_all_edges

        result = kapralov_panigrahi_sparsify(small_er_graph, epsilon=0.5, seed=2)
        exact = effective_resistances_all_edges(small_er_graph)
        assert np.all(result.resistance_upper_bounds >= exact - 1e-9)

    def test_uses_log_n_spanners(self, small_er_graph):
        result = kapralov_panigrahi_sparsify(small_er_graph, epsilon=0.5, seed=3)
        assert result.num_spanners <= int(np.ceil(np.log2(small_er_graph.num_vertices)))

    def test_empty_graph(self):
        result = kapralov_panigrahi_sparsify(Graph(4), seed=0)
        assert result.sparsifier.num_edges == 0

    def test_eps_dependence_worse_than_ours(self):
        """The KP sample budget grows ~1/eps^4 vs our bundle's ~1/eps^2 (Remark 4)."""
        ratio_kp = kp_sample_count(512, 0.25, constant=1.0) / kp_sample_count(512, 0.5, constant=1.0)
        from repro.spanners.bundle import bundle_size_for_epsilon

        ratio_ours = bundle_size_for_epsilon(512, 0.25) / bundle_size_for_epsilon(512, 0.5)
        assert ratio_kp == pytest.approx(16.0, rel=0.01)
        assert ratio_ours == pytest.approx(4.0, rel=0.01)
