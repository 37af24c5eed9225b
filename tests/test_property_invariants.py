"""Cross-cutting property-based tests (hypothesis) for core invariants.

These complement the per-module tests with randomized invariants that tie
several subsystems together:

* Laplacian algebra: L(G1 + G2) = L(G1) + L(G2), L(aG) = a L(G).
* Foster's theorem: leverage scores of a connected graph sum to n - 1.
* Effective resistance is a metric (triangle inequality) on random graphs.
* Spectral certificates behave correctly under scaling and edge removal.
* The SDD reduction preserves solutions for random SDD systems.
* PARALLELSAMPLE preserves the Laplacian in expectation (Monte Carlo check).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.linalg.sdd import SDDMatrix
from repro.resistance.exact import effective_resistances_of_pairs, leverage_scores


def _random_connected_graph(seed: int, n_min: int = 8, n_max: int = 40) -> Graph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max))
    p = float(rng.uniform(0.1, 0.5))
    return gen.erdos_renyi_graph(
        n, p, seed=seed, weight_range=(0.5, 3.0), ensure_connected=True
    )


class TestLaplacianAlgebra:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_laplacian_of_sum_is_sum_of_laplacians(self, seed):
        a = _random_connected_graph(seed)
        b = _random_connected_graph(seed + 1, n_min=a.num_vertices, n_max=a.num_vertices + 1)
        if b.num_vertices != a.num_vertices:
            return
        combined = (a + b).laplacian().toarray()
        assert np.allclose(combined, a.laplacian().toarray() + b.laplacian().toarray())

    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        factor=st.floats(min_value=0.1, max_value=8.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_laplacian_of_scaled_graph(self, seed, factor):
        g = _random_connected_graph(seed)
        assert np.allclose(
            g.scaled(factor).laplacian().toarray(), factor * g.laplacian().toarray()
        )


class TestResistanceInvariants:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_fosters_theorem(self, seed):
        """Sum of leverage scores of a connected graph equals n - 1."""
        g = _random_connected_graph(seed)
        assert leverage_scores(g).sum() == pytest.approx(g.num_vertices - 1, rel=1e-5)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_effective_resistance_triangle_inequality(self, seed):
        g = _random_connected_graph(seed, n_min=5, n_max=25)
        rng = np.random.default_rng(seed)
        a, b, c = rng.choice(g.num_vertices, size=3, replace=False)
        r_ab, r_bc, r_ac = effective_resistances_of_pairs(
            g, [(int(a), int(b)), (int(b), int(c)), (int(a), int(c))]
        )
        assert r_ac <= r_ab + r_bc + 1e-9


class TestCertificateInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        factor=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_certificate_of_scaled_graph(self, seed, factor):
        g = _random_connected_graph(seed)
        cert = certify_approximation(g, g.scaled(factor))
        assert cert.lower == pytest.approx(factor, rel=1e-5)
        assert cert.upper == pytest.approx(factor, rel=1e-5)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_subgraph_certificate_never_exceeds_one(self, seed):
        g = _random_connected_graph(seed)
        rng = np.random.default_rng(seed)
        keep = rng.random(g.num_edges) < 0.7
        if not keep.any():
            return
        sub = g.select_edges(keep)
        cert = certify_approximation(g, sub)
        assert cert.upper <= 1.0 + 1e-7
        assert cert.lower >= -1e-9


class TestSDDReductionProperty:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_reduction_roundtrip_random_sdd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        off = rng.uniform(-1.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.5)
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        mat = np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, n)) + off
        wrapper = SDDMatrix.from_matrix(mat)
        x_true = rng.standard_normal(n)
        y = laplacian_pseudoinverse(wrapper.laplacian) @ wrapper.reduce_rhs(mat @ x_true)
        assert np.allclose(wrapper.recover(y), x_true, atol=1e-5)


class TestSamplingExpectation:
    def test_parallel_sample_unbiased_in_expectation(self):
        """Averaging many PARALLELSAMPLE outputs approaches the input Laplacian.

        This is the E[G~] = G property underpinning the matrix-Chernoff
        argument of Theorem 4, checked by Monte Carlo on a small graph.
        """
        g = gen.erdos_renyi_graph(40, 0.3, seed=0, ensure_connected=True)
        config = SparsifierConfig.practical(bundle_t=1)
        total = np.zeros((g.num_vertices, g.num_vertices))
        trials = 40
        for seed in range(trials):
            result = parallel_sample(g, epsilon=0.5, config=config, seed=seed)
            total += result.sparsifier.laplacian().toarray()
        mean_laplacian = total / trials
        original = g.laplacian().toarray()
        scale = np.abs(original).max()
        # Entry-wise agreement within Monte Carlo noise.
        assert np.abs(mean_laplacian - original).max() < 0.35 * scale
        # Total weight agreement within a few percent.
        assert np.trace(mean_laplacian) == pytest.approx(np.trace(original), rel=0.1)
