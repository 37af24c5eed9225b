"""Tests for repro.graphs.generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import generators as gen
from repro.graphs.connectivity import is_connected


class TestDeterministicGenerators:
    def test_path_graph(self):
        g = gen.path_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 4
        assert is_connected(g)

    def test_path_graph_single_vertex(self):
        assert gen.path_graph(1).num_edges == 0

    def test_path_rejects_zero(self):
        with pytest.raises(GraphError):
            gen.path_graph(0)

    def test_cycle_graph(self):
        g = gen.cycle_graph(6)
        assert g.num_edges == 6
        assert np.all(g.degrees() == 2)

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            gen.cycle_graph(2)

    def test_star_graph(self):
        g = gen.star_graph(7)
        degrees = g.degrees()
        assert degrees[0] == 6
        assert np.all(degrees[1:] == 1)

    def test_complete_graph(self):
        g = gen.complete_graph(8)
        assert g.num_edges == 8 * 7 // 2
        assert np.all(g.degrees() == 7)

    def test_grid_graph_counts(self):
        g = gen.grid_graph(4, 5)
        assert g.num_vertices == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical
        assert is_connected(g)

    def test_grid_graph_rejects_bad_dims(self):
        with pytest.raises(GraphError):
            gen.grid_graph(0, 3)

    def test_dumbbell_graph(self):
        g = gen.dumbbell_graph(5, path_length=3)
        assert is_connected(g)
        # Two cliques of 10 edges each plus a 3-edge path.
        assert g.num_edges == 2 * 10 + 3

    def test_dumbbell_rejects_bad_params(self):
        with pytest.raises(GraphError):
            gen.dumbbell_graph(1)
        with pytest.raises(GraphError):
            gen.dumbbell_graph(4, path_length=0)


class TestRandomGenerators:
    def test_erdos_renyi_reproducible(self):
        a = gen.erdos_renyi_graph(50, 0.2, seed=3)
        b = gen.erdos_renyi_graph(50, 0.2, seed=3)
        assert a.same_edge_set(b)

    def test_erdos_renyi_density(self):
        g = gen.erdos_renyi_graph(100, 0.3, seed=0)
        expected = 0.3 * 100 * 99 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_erdos_renyi_connected_flag(self):
        g = gen.erdos_renyi_graph(80, 0.01, seed=1, ensure_connected=True)
        assert is_connected(g)

    def test_erdos_renyi_weight_range(self):
        g = gen.erdos_renyi_graph(40, 0.3, seed=2, weight_range=(2.0, 3.0))
        assert g.edge_weights.min() >= 2.0
        assert g.edge_weights.max() <= 3.0

    def test_erdos_renyi_rejects_bad_p(self):
        with pytest.raises(GraphError):
            gen.erdos_renyi_graph(10, 1.5)

    def test_erdos_renyi_extreme_probabilities(self):
        assert gen.erdos_renyi_graph(20, 0.0, seed=0).num_edges == 0
        assert gen.erdos_renyi_graph(10, 1.0, seed=0).num_edges == 45

    def test_banded_graph_structure(self):
        g = gen.banded_graph(10, 3)
        # Each vertex u joins u+1..u+3 where in range: 9 + 8 + 7 edges.
        assert g.num_edges == 24
        assert np.all(g.edge_v - g.edge_u <= 3)
        assert np.all(g.edge_weights == 1.0)

    def test_banded_graph_weighted_reproducible(self):
        a = gen.banded_graph(20, 2, weight_range=(0.5, 2.0), seed=7)
        b = gen.banded_graph(20, 2, weight_range=(0.5, 2.0), seed=7)
        assert np.array_equal(a.edge_weights, b.edge_weights)
        assert np.all((a.edge_weights >= 0.5) & (a.edge_weights <= 2.0))

    def test_banded_graph_rejects_bad_params(self):
        with pytest.raises(GraphError):
            gen.banded_graph(0, 2)
        with pytest.raises(GraphError):
            gen.banded_graph(5, 0)
        with pytest.raises(GraphError):
            gen.banded_graph(5, 2, weight_range=(0.0, 1.0))

    def test_barabasi_albert_size(self):
        g = gen.barabasi_albert_graph(60, 3, seed=4)
        assert g.num_vertices == 60
        assert is_connected(g)
        seed_clique_edges = 4 * 3 // 2
        assert g.num_edges == seed_clique_edges + (60 - 4) * 3

    def test_barabasi_albert_rejects_bad_params(self):
        with pytest.raises(GraphError):
            gen.barabasi_albert_graph(3, 3)
        with pytest.raises(GraphError):
            gen.barabasi_albert_graph(10, 0)

    def test_random_geometric_weights_positive(self):
        g = gen.random_geometric_graph(60, 0.3, seed=6)
        assert np.all(g.edge_weights > 0)

    def test_random_geometric_rejects_bad_radius(self):
        with pytest.raises(GraphError):
            gen.random_geometric_graph(10, 0.0)


class TestImageAffinity:
    def test_shape_and_weights(self):
        g = gen.image_affinity_graph(10, 12, beta=5.0, seed=0)
        assert g.num_vertices == 120
        base = gen.grid_graph(10, 12)
        assert g.num_edges == base.num_edges
        assert np.all(g.edge_weights > 0)
        assert np.all(g.edge_weights <= 1.0)

    def test_custom_image(self):
        image = np.zeros((4, 4))
        image[:, 2:] = 1.0  # sharp vertical edge
        g = gen.image_affinity_graph(4, 4, beta=10.0, image=image)
        weights = g.edge_weight_map()
        # Edges across the intensity boundary are much weaker than within regions.
        across = weights[(1, 2)]  # vertices 1 and 2 are columns 1,2 of row 0
        within = weights[(0, 1)]
        assert across < within / 10

    def test_image_shape_mismatch(self):
        with pytest.raises(GraphError):
            gen.image_affinity_graph(4, 4, image=np.zeros((3, 3)))

    def test_image_kinds(self):
        for kind in ("blobs", "stripes", "noise"):
            g = gen.image_affinity_graph(6, 6, seed=1, kind=kind)
            assert g.num_edges > 0

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            gen.image_affinity_graph(4, 4, kind="swirl")

    def test_min_weight_floor(self):
        g = gen.image_affinity_graph(8, 8, beta=1000.0, seed=0, kind="noise", min_weight=1e-3)
        assert g.edge_weights.min() >= 1e-3
