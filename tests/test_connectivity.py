"""Tests for repro.graphs.connectivity."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs.connectivity import connected_components, is_connected
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union, induced_subgraph


def _component_subgraphs(graph):
    """``(vertex_ids, subgraph)`` per component, built from the kept primitives."""
    labels = connected_components(graph)
    return [
        (ids, induced_subgraph(graph, ids))
        for ids in (np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1))
    ]


class TestComponents:
    def test_connected_graph_single_component(self, small_er_graph):
        labels = connected_components(small_er_graph)
        assert labels.max() == 0
        assert is_connected(small_er_graph)

    def test_disconnected_union(self, triangle_graph):
        g = disjoint_union(triangle_graph, triangle_graph)
        labels = connected_components(g)
        assert labels.max() == 1
        assert not is_connected(g)
        assert np.all(labels[:3] == labels[0])
        assert np.all(labels[3:] == labels[3])

    def test_isolated_vertices(self):
        g = Graph(5, [0], [1], [1.0])
        labels = connected_components(g)
        assert len(np.unique(labels)) == 4

    def test_empty_graph(self):
        g = Graph(4)
        assert len(np.unique(connected_components(g))) == 4

    def test_labels_are_cached_read_only(self, triangle_graph):
        g = disjoint_union(triangle_graph, Graph(2))
        labels = connected_components(g)
        assert connected_components(g) is labels
        assert not labels.flags.writeable
        # A derived graph is labelled afresh.
        assert connected_components(g.select_edges(np.arange(1))).tolist() == [0, 0, 1, 2, 3]

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))

    def test_component_subgraphs(self, triangle_graph, weighted_path):
        combined = disjoint_union(triangle_graph, weighted_path)
        parts = _component_subgraphs(combined)
        assert len(parts) == 2
        sizes = sorted(sub.num_vertices for _, sub in parts)
        assert sizes == [3, 4]
        total_edges = sum(sub.num_edges for _, sub in parts)
        assert total_edges == combined.num_edges
        assert all(is_connected(sub) for _, sub in parts)

    def test_component_subgraph_vertex_ids_map_back(self, triangle_graph, weighted_path):
        combined = disjoint_union(disjoint_union(triangle_graph, Graph(2)), weighted_path)
        parts = _component_subgraphs(combined)
        all_ids = np.concatenate([ids for ids, _ in parts])
        assert sorted(all_ids.tolist()) == list(range(combined.num_vertices))
        # Subgraph vertex i is ids[i]: mapped back, the edges are the input's.
        mapped = {
            (int(ids[a]), int(ids[b])): weight
            for ids, sub in parts
            for (a, b), weight in sub.edge_weight_map().items()
        }
        assert mapped == combined.edge_weight_map()

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_components_match_networkx(self, seed):
        """Cross-check the component labels against networkx, label for label."""
        import networkx as nx

        from repro.graphs.conversion import to_networkx

        rng = np.random.default_rng(seed)
        n = 25
        m = int(rng.integers(0, 40))
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        mask = u != v
        # Repeat some edges: parallel edges must not change any label.
        repeat = rng.integers(0, max(int(mask.sum()), 1), size=int(mask.sum() > 0) * 300)
        u, v = u[mask], v[mask]
        g = Graph(n, np.concatenate([u, u[repeat]]), np.concatenate([v, v[repeat]]))
        labels = connected_components(g)
        # networkx counts isolated vertices as components too; so do we.
        components = list(nx.connected_components(to_networkx(g)))
        assert labels.max(initial=-1) + 1 == len(components)
        # Each component is labelled by the rank of its least vertex.
        expected = np.empty(n, dtype=np.int64)
        for rank, members in enumerate(sorted(components, key=min)):
            expected[sorted(members)] = rank
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expected)
