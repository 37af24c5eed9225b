"""Tests for Algorithm 2 (PARALLELSPARSIFY) and the spectral certificates."""

import numpy as np
import pytest

from repro.core.certificates import SpectralCertificate, certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import SparsificationError
from repro.graphs import generators as gen
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph

PRACTICAL = SparsifierConfig.practical()
SMALL_BUNDLE = SparsifierConfig.practical(bundle_t=1)


class TestRounds:
    def test_number_of_rounds_matches_log_rho(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=8, config=PRACTICAL, seed=0)
        assert len(result.rounds) <= 3
        if not result.stopped_early:
            assert len(result.rounds) == 3

    def test_rho_one_returns_input(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=1, config=PRACTICAL, seed=0)
        assert len(result.rounds) == 0
        assert result.sparsifier.same_edge_set(medium_er_graph.coalesce())

    def test_per_round_epsilon_split(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.6, rho=4, config=PRACTICAL, seed=1)
        for record in result.rounds:
            assert record.epsilon == pytest.approx(0.3)

    def test_round_records_consistent(self):
        g = gen.erdos_renyi_graph(150, 0.4, seed=2, ensure_connected=True)
        result = parallel_sparsify(g, epsilon=0.5, rho=4, config=SMALL_BUNDLE, seed=3)
        for record in result.rounds:
            assert record.output_edges <= record.bundle_edges + record.sampled_edges
            assert record.work > 0
        # Rounds are numbered consecutively from 1.
        assert [r.round_index for r in result.rounds] == list(range(1, len(result.rounds) + 1))

    def test_edge_counts_decrease_across_rounds(self):
        g = gen.erdos_renyi_graph(200, 0.5, seed=4, ensure_connected=True)
        result = parallel_sparsify(g, epsilon=0.5, rho=8, config=SMALL_BUNDLE, seed=5)
        inputs = [r.input_edges for r in result.rounds]
        assert all(later <= earlier for earlier, later in zip(inputs, inputs[1:]))

    def test_stops_early_when_degenerate(self):
        tree = gen.path_graph(60)
        result = parallel_sparsify(tree, epsilon=0.5, rho=16, config=PRACTICAL, seed=0)
        assert result.stopped_early
        assert result.sparsifier.same_edge_set(tree)

    def test_validation(self, medium_er_graph):
        with pytest.raises(SparsificationError):
            parallel_sparsify(medium_er_graph, epsilon=0.5, rho=0.5)
        with pytest.raises(SparsificationError):
            parallel_sparsify(medium_er_graph, epsilon=1.5, rho=2)


class TestOutputQuality:
    def test_reduction_on_dense_graph(self):
        g = gen.erdos_renyi_graph(200, 0.5, seed=6, ensure_connected=True)
        result = parallel_sparsify(g, epsilon=0.5, rho=8, config=SMALL_BUNDLE, seed=7)
        assert result.output_edges < g.num_edges
        assert result.reduction_factor > 1.5

    def test_connectivity_preserved(self):
        g = gen.erdos_renyi_graph(150, 0.3, seed=8, ensure_connected=True)
        result = parallel_sparsify(g, epsilon=0.5, rho=4, config=PRACTICAL, seed=9)
        assert is_connected(result.sparsifier)

    def test_certificate_quality_reasonable(self):
        g = gen.erdos_renyi_graph(150, 0.3, seed=10, ensure_connected=True)
        result = parallel_sparsify(g, epsilon=0.5, rho=4, config=PRACTICAL, seed=11)
        cert = certify_approximation(g, result.sparsifier)
        assert cert.lower > 0.2
        assert cert.upper < 3.0

    def test_output_coalesced(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4, config=PRACTICAL, seed=12)
        keys = result.sparsifier.edge_keys()
        assert len(np.unique(keys)) == len(keys)

    def test_total_cost_accumulates(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4, config=PRACTICAL, seed=13)
        assert result.cost.work >= sum(r.work for r in result.rounds)

    def test_larger_rho_gives_fewer_edges(self):
        g = gen.erdos_renyi_graph(200, 0.5, seed=14, ensure_connected=True)
        small_rho = parallel_sparsify(g, epsilon=0.5, rho=2, config=SMALL_BUNDLE, seed=15)
        large_rho = parallel_sparsify(g, epsilon=0.5, rho=16, config=SMALL_BUNDLE, seed=15)
        assert large_rho.output_edges <= small_rho.output_edges

    def test_reproducible(self, medium_er_graph):
        a = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4, config=PRACTICAL, seed=16)
        b = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4, config=PRACTICAL, seed=16)
        assert a.sparsifier.same_edge_set(b.sparsifier)

    def test_empty_graph(self):
        result = parallel_sparsify(Graph(4), epsilon=0.5, rho=4, seed=0)
        assert result.output_edges == 0


class TestCertificates:
    def test_identity_certificate(self, medium_er_graph):
        cert = certify_approximation(medium_er_graph, medium_er_graph)
        assert cert.lower == pytest.approx(1.0, abs=1e-6)
        assert cert.upper == pytest.approx(1.0, abs=1e-6)
        assert cert.epsilon_achieved == pytest.approx(0.0, abs=1e-6)
        assert cert.holds(0.01)

    def test_scaled_graph_certificate(self, small_er_graph):
        cert = certify_approximation(small_er_graph, small_er_graph.scaled(1.3))
        assert cert.lower == pytest.approx(1.3, abs=1e-6)
        assert cert.upper == pytest.approx(1.3, abs=1e-6)
        assert not cert.holds(0.2)
        assert cert.holds(0.35)

    def test_condition_number(self):
        cert = SpectralCertificate(lower=0.5, upper=2.0)
        assert cert.condition_number == pytest.approx(4.0)
        assert cert.epsilon_achieved == pytest.approx(1.0)

    def test_zero_lower_bound_condition_number(self):
        assert SpectralCertificate(lower=0.0, upper=1.0).condition_number == float("inf")

    def test_vertex_count_mismatch(self, small_er_graph, triangle_graph):
        with pytest.raises(ValueError):
            certify_approximation(small_er_graph, triangle_graph)

    def test_subgraph_certificate_upper_at_most_one(self, small_er_graph):
        keep = np.ones(small_er_graph.num_edges, dtype=bool)
        keep[::3] = False
        sub = small_er_graph.select_edges(keep)
        cert = certify_approximation(small_er_graph, sub)
        assert cert.upper <= 1.0 + 1e-8
        assert cert.lower < 1.0
