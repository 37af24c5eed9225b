"""Tests for the distributed PARALLELSAMPLE / PARALLELSPARSIFY drivers."""

import numpy as np
import pytest

from repro.core.certificates import certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import (
    distributed_parallel_sample,
    distributed_parallel_sparsify,
)
from repro.exceptions import SparsificationError
from repro.graphs import generators as gen
from repro.graphs.connectivity import is_connected
from repro.graphs.graph import Graph

CONFIG = SparsifierConfig.practical(bundle_t=2)


class TestDistributedSample:
    def test_basic_run(self, small_er_graph):
        result = distributed_parallel_sample(small_er_graph, epsilon=0.5, config=CONFIG, seed=0)
        assert result.output_edges > 0
        assert result.cost.rounds > 0
        assert result.cost.messages > 0
        assert result.components_built == 2

    def test_output_is_valid_sparsifier(self, small_er_graph):
        result = distributed_parallel_sample(small_er_graph, epsilon=0.5, config=CONFIG, seed=1)
        assert is_connected(result.sparsifier)
        cert = certify_approximation(small_er_graph, result.sparsifier)
        assert 0 < cert.lower <= cert.upper < 5

    def test_message_size_stays_logarithmic(self, small_er_graph):
        result = distributed_parallel_sample(small_er_graph, epsilon=0.5, config=CONFIG, seed=2)
        limit = 4 * int(np.ceil(np.log2(small_er_graph.num_vertices))) + 16
        assert result.cost.max_message_words <= limit

    def test_bundle_and_sampled_indices_disjoint(self, small_er_graph):
        result = distributed_parallel_sample(small_er_graph, epsilon=0.5, config=CONFIG, seed=3)
        assert not np.intersect1d(result.bundle_edge_indices, result.sampled_edge_indices).size

    def test_degenerate_on_tree(self):
        tree = gen.path_graph(40)
        result = distributed_parallel_sample(tree, epsilon=0.5, config=CONFIG, seed=0)
        assert result.degenerate
        assert result.sparsifier.same_edge_set(tree)

    def test_tiny_graph_short_circuit(self):
        g = Graph(2, [0], [1], [1.0])
        result = distributed_parallel_sample(g, config=CONFIG, seed=0)
        assert result.degenerate
        assert result.cost.rounds == 0

    def test_epsilon_validation(self, small_er_graph):
        with pytest.raises(SparsificationError):
            distributed_parallel_sample(small_er_graph, epsilon=0.0)

    def test_rounds_scale_with_bundle_size(self, small_er_graph):
        one = distributed_parallel_sample(
            small_er_graph, config=SparsifierConfig.practical(bundle_t=1), seed=4
        )
        three = distributed_parallel_sample(
            small_er_graph, config=SparsifierConfig.practical(bundle_t=3), seed=4
        )
        assert three.cost.rounds > one.cost.rounds


class TestDistributedSparsify:
    def test_rounds_and_cost_accumulate(self, small_er_graph):
        result = distributed_parallel_sparsify(
            small_er_graph, epsilon=0.5, rho=4, config=CONFIG, seed=0
        )
        assert len(result.rounds) >= 1
        assert result.cost.rounds == sum(r.cost.rounds for r in result.rounds)
        assert result.cost.messages == sum(r.cost.messages for r in result.rounds)

    def test_quality_comparable_to_sequential(self, small_er_graph):
        from repro.core.sparsify import parallel_sparsify

        dist = distributed_parallel_sparsify(
            small_er_graph, epsilon=0.5, rho=4, config=CONFIG, seed=1
        )
        seq = parallel_sparsify(small_er_graph, epsilon=0.5, rho=4, config=CONFIG, seed=1)
        cert_dist = certify_approximation(small_er_graph, dist.sparsifier)
        cert_seq = certify_approximation(small_er_graph, seq.sparsifier)
        # Same algorithm, different execution substrate: quality in the same ballpark.
        assert abs(cert_dist.epsilon_achieved - cert_seq.epsilon_achieved) < 0.5

    def test_rho_validation(self, small_er_graph):
        with pytest.raises(SparsificationError):
            distributed_parallel_sparsify(small_er_graph, rho=0.1)

    @pytest.mark.parametrize("epsilon", [5.0, -1])
    def test_epsilon_validation_without_rounds(self, small_er_graph, epsilon):
        # rho=1 runs no round, so no round can check epsilon.
        with pytest.raises(SparsificationError, match="epsilon"):
            distributed_parallel_sparsify(small_er_graph, epsilon=epsilon, rho=1)

    def test_stops_early_on_tree(self):
        tree = gen.path_graph(30)
        result = distributed_parallel_sparsify(tree, epsilon=0.5, rho=8, config=CONFIG, seed=0)
        assert result.stopped_early
