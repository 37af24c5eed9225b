"""Parity tests for the blocked multi-RHS solver and its consumers.

``laplacian_solve_many`` is pinned against per-column ``laplacian_solve``
and the dense-pseudoinverse path on small graphs, across every workload
the certification layer routes through it: explicit pairs, all-edges /
leverage scores, and the JL sketch (same sign matrix on both sides).
Edge cases: zero RHS columns, disconnected graphs, sparse RHS input, and
chunking invariance.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConvergenceError, GraphError
from repro.graphs import generators as gen
from repro.graphs.connectivity import connected_components, sample_component_pairs
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union
from repro.linalg.cg import laplacian_solve, laplacian_solve_many
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.resistance._reference import (
    looped_approximate_resistances,
    looped_resistances_all_edges,
    looped_resistances_of_pairs,
)
from repro.resistance.approx import (
    approximate_effective_resistances_detailed,
    jl_direction_count,
)
from repro.resistance.exact import (
    effective_resistances_all_edges,
    effective_resistances_of_pairs,
    leverage_scores,
)


class TestLaplacianSolveMany:
    def test_matches_per_column_solve(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 9))
        rhs -= rhs.mean(axis=0)
        batch = laplacian_solve_many(lap, rhs, tol=1e-10, block_size=4)
        assert batch.all_converged
        assert batch.num_blocks == 3
        for j in range(rhs.shape[1]):
            single = laplacian_solve(lap, rhs[:, j], tol=1e-10)
            assert np.allclose(batch.x[:, j], single.x, atol=1e-7)

    def test_matches_pseudoinverse(self, weighted_er_graph):
        lap = weighted_er_graph.laplacian()
        pinv = laplacian_pseudoinverse(lap)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal((weighted_er_graph.num_vertices, 5))
        rhs -= rhs.mean(axis=0)
        batch = laplacian_solve_many(lap, rhs, tol=1e-11)
        assert np.allclose(batch.x, pinv @ rhs, atol=1e-6)

    def test_zero_columns_converge_immediately(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rhs = np.zeros((small_er_graph.num_vertices, 3))
        rhs[:, 1] = np.random.default_rng(2).standard_normal(small_er_graph.num_vertices)
        rhs[:, 1] -= rhs[:, 1].mean()
        batch = laplacian_solve_many(lap, rhs, tol=1e-10)
        assert batch.all_converged
        assert batch.iterations[0] == 0 and batch.iterations[2] == 0
        assert np.all(batch.x[:, 0] == 0.0) and np.all(batch.x[:, 2] == 0.0)
        assert batch.iterations[1] > 0

    def test_block_size_does_not_change_solutions(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 10))
        rhs -= rhs.mean(axis=0)
        a = laplacian_solve_many(lap, rhs, tol=1e-11, block_size=2).x
        b = laplacian_solve_many(lap, rhs, tol=1e-11, block_size=10).x
        assert np.allclose(a, b, atol=1e-7)

    def test_sparse_rhs(self, small_er_graph):
        lap = small_er_graph.laplacian()
        n = small_er_graph.num_vertices
        dense = np.zeros((n, 4))
        dense[0, 0] = 1.0
        dense[5, 0] = -1.0
        dense[2, 1] = 1.0
        dense[9, 1] = -1.0
        dense[1, 3] = 1.0
        dense[7, 3] = -1.0
        sparse = sp.csc_matrix(dense)
        a = laplacian_solve_many(lap, sparse, tol=1e-10, block_size=3)
        b = laplacian_solve_many(lap, dense, tol=1e-10, block_size=3)
        assert np.allclose(a.x, b.x, atol=1e-9)
        assert a.converged[2]  # the zero column

    def test_disconnected_graph_pair_rhs(self):
        part = gen.erdos_renyi_graph(25, 0.25, seed=4, ensure_connected=True)
        graph = disjoint_union(part, part)
        lap = graph.laplacian()
        pinv = laplacian_pseudoinverse(lap)
        rhs = np.zeros((graph.num_vertices, 2))
        rhs[1, 0], rhs[8, 0] = 1.0, -1.0     # within component 0
        rhs[30, 1], rhs[44, 1] = 1.0, -1.0   # within component 1
        batch = laplacian_solve_many(lap, rhs, tol=1e-11)
        assert batch.all_converged
        expected = pinv @ rhs
        # Solutions agree up to per-component constants; compare differences.
        assert batch.x[1, 0] - batch.x[8, 0] == pytest.approx(
            expected[1, 0] - expected[8, 0], abs=1e-7
        )
        assert batch.x[30, 1] - batch.x[44, 1] == pytest.approx(
            expected[30, 1] - expected[44, 1], abs=1e-7
        )

    def test_work_accounting(self, small_er_graph):
        lap = small_er_graph.laplacian().tocsr()
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 6))
        rhs -= rhs.mean(axis=0)
        batch = laplacian_solve_many(lap, rhs, tol=1e-8)
        assert batch.matvecs > 0
        assert batch.work == pytest.approx(lap.nnz * batch.matvecs)
        assert batch.num_columns == 6

    def test_raise_on_failure(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 2))
        rhs -= rhs.mean(axis=0)
        with pytest.raises(ConvergenceError):
            laplacian_solve_many(lap, rhs, tol=1e-14, max_iterations=2,
                                 raise_on_failure=True)

    def test_rejects_bad_shapes(self, small_er_graph):
        lap = small_er_graph.laplacian()
        with pytest.raises(ValueError):
            laplacian_solve_many(lap, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            laplacian_solve_many(
                lap, np.zeros((small_er_graph.num_vertices, 2)), block_size=0
            )


class TestBlockedResistanceParity:
    def test_pairs_match_looped_and_pinv(self, weighted_er_graph):
        pairs = np.array([(0, 5), (3, 17), (10, 40), (5, 0), (3, 17), (2, 60)])
        blocked = effective_resistances_of_pairs(weighted_er_graph, pairs, method="solve")
        looped = looped_resistances_of_pairs(weighted_er_graph, pairs)
        by_pinv = effective_resistances_of_pairs(weighted_er_graph, pairs, method="pinv")
        assert np.allclose(blocked, looped, rtol=1e-6)
        assert np.allclose(blocked, by_pinv, rtol=1e-6)
        # Duplicated / reversed pairs share one solve and one value.
        assert blocked[0] == blocked[3]
        assert blocked[1] == blocked[4]

    def test_all_edges_match_looped_and_pinv(self, small_er_graph):
        blocked = effective_resistances_all_edges(small_er_graph, method="solve")
        looped = looped_resistances_all_edges(small_er_graph)
        by_pinv = effective_resistances_all_edges(small_er_graph, method="pinv")
        assert np.allclose(blocked, looped, rtol=1e-6)
        assert np.allclose(blocked, by_pinv, rtol=1e-6)

    def test_leverage_scores_solve_path(self, weighted_er_graph):
        by_solve = leverage_scores(weighted_er_graph, method="solve")
        by_pinv = leverage_scores(weighted_er_graph, method="pinv")
        assert np.allclose(by_solve, by_pinv, rtol=1e-6)
        assert by_solve.sum() == pytest.approx(
            weighted_er_graph.num_vertices - 1, rel=1e-6
        )

    def test_disconnected_graph_pairs(self, triangle_graph):
        graph = disjoint_union(triangle_graph, triangle_graph)
        pairs = [(0, 1), (3, 5), (4, 5)]
        blocked = effective_resistances_of_pairs(graph, pairs, method="solve")
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert np.allclose(blocked, by_pinv, rtol=1e-6)

    def test_pair_path_chunks_match_single_block(self):
        """Pair-indicator chunk loop: tiny block_size must not change results.

        A disconnected graph forces the pair-indicator path (the vertex
        path requires connectivity), and block_size=2 over 8 pairs drives
        the chunked solve-and-discard loop across several chunks.
        """
        part = gen.erdos_renyi_graph(20, 0.3, seed=8, ensure_connected=True)
        graph = disjoint_union(part, part)
        rng = np.random.default_rng(9)
        a = rng.integers(0, 20, size=16).reshape(8, 2)
        a = a[a[:, 0] != a[:, 1]]
        pairs = np.concatenate([a, a + 20])  # pairs in both components
        chunked = effective_resistances_of_pairs(
            graph, pairs, method="solve", block_size=2
        )
        whole = effective_resistances_of_pairs(
            graph, pairs, method="solve", block_size=64
        )
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert np.allclose(chunked, whole, rtol=1e-8)
        assert np.allclose(chunked, by_pinv, rtol=1e-6)

    def test_tree_leverage_scores_all_one(self):
        tree = gen.path_graph(12)
        assert np.allclose(leverage_scores(tree, method="solve"), 1.0, atol=1e-7)

    def test_all_edges_with_isolated_vertex(self):
        """A stray isolated vertex must not break (or bypass) the vertex path."""
        core = gen.erdos_renyi_graph(40, 0.3, seed=13, ensure_connected=True)
        graph = Graph(
            core.num_vertices + 1, core.edge_u, core.edge_v, core.edge_weights
        )
        by_solve = effective_resistances_all_edges(graph, method="solve")
        by_pinv = effective_resistances_all_edges(graph, method="pinv")
        assert np.allclose(by_solve, by_pinv, rtol=1e-6)

    def test_all_edges_disconnected_dense_components(self):
        """Per-component vertex path on a multi-component graph matches pinv."""
        a = gen.erdos_renyi_graph(30, 0.4, seed=14, ensure_connected=True)
        b = gen.erdos_renyi_graph(25, 0.4, seed=15, ensure_connected=True)
        graph = disjoint_union(a, b)  # each component has m >> n
        by_solve = effective_resistances_all_edges(graph, method="solve")
        by_pinv = effective_resistances_all_edges(graph, method="pinv")
        assert np.allclose(by_solve, by_pinv, rtol=1e-6)
        scores = leverage_scores(graph, method="solve")
        # Leverage scores sum to n - c (two components here).
        assert scores.sum() == pytest.approx(graph.num_vertices - 2, rel=1e-6)


class TestBlockedJLSketch:
    def test_same_signs_match_per_column_solves(self, small_er_graph):
        """Feed the blocked RHS construction through per-column CG: identical."""
        g = small_er_graph
        n, m = g.num_vertices, g.num_edges
        k = 6
        rng = np.random.default_rng(11)
        signs = rng.integers(0, 2, size=(k, m), dtype=np.int8) * 2 - 1
        sqrt_w = np.sqrt(g.edge_weights)
        lap = g.laplacian()
        scale = 1.0 / np.sqrt(k)
        expected = np.zeros(m)
        rhs = np.zeros((n, k))
        for j in range(k):
            contrib = signs[j] * scale * sqrt_w
            np.add.at(rhs[:, j], g.edge_u, contrib)
            np.add.at(rhs[:, j], g.edge_v, -contrib)
            z = laplacian_solve(lap, rhs[:, j], tol=1e-10).x
            diff = z[g.edge_u] - z[g.edge_v]
            expected += diff * diff
        batch = laplacian_solve_many(lap, rhs, tol=1e-10, block_size=4)
        diff = batch.x[g.edge_u, :] - batch.x[g.edge_v, :]
        blocked = np.einsum("ij,ij->i", diff, diff)
        assert np.allclose(blocked, expected, rtol=1e-6)

    def test_fixed_seed_reproducible_across_block_sizes(self, small_er_graph):
        with pytest.warns(UserWarning):
            a = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=16, seed=42, block_size=4
            ).resistances
            b = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=16, seed=42, block_size=16
            ).resistances
        assert np.allclose(a, b)

    def test_no_direction_cap_on_sparse_graphs(self):
        """A path graph has m = n - 1 << 24 ln n / delta^2: no silent cap."""
        path = gen.path_graph(40)
        detailed = approximate_effective_resistances_detailed(path, delta=0.5, seed=0)
        assert detailed.num_directions == jl_direction_count(40, 0.5)
        assert detailed.num_directions > path.num_edges
        assert detailed.delta_target == 0.5
        assert detailed.delta_effective == pytest.approx(0.5, rel=0.05)
        # With enough directions the estimate is actually within tolerance.
        assert np.allclose(detailed.resistances, 1.0, rtol=0.6)

    def test_explicit_count_records_effective_delta(self, small_er_graph):
        with pytest.warns(UserWarning, match="guarantee"):
            detailed = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=8, seed=3
            )
        assert detailed.delta_target is None
        assert detailed.delta_effective > 1.0
        assert detailed.num_directions == 8

    def test_statistical_agreement_with_looped(self, small_er_graph):
        exact = effective_resistances_all_edges(small_er_graph, method="pinv")
        with pytest.warns(UserWarning):
            blocked = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=64, seed=9
            ).resistances
        looped = looped_approximate_resistances(small_er_graph, 64, seed=9)
        # Different sign draws, same estimator: both concentrate around exact.
        assert np.median(np.abs(blocked / exact - 1.0)) < 0.4
        assert np.median(np.abs(looped / exact - 1.0)) < 0.4


class TestUnconvergedWarning:
    def test_unconverged_columns_warn(self):
        from repro.linalg.cg import BatchSolveResult
        from repro.resistance.exact import _warn_if_unconverged

        fake = BatchSolveResult(
            x=np.zeros((4, 2)),
            converged=np.array([True, False]),
            iterations=np.array([3, 40]),
            residual_norms=np.array([1e-12, 0.3]),
        )
        with pytest.warns(UserWarning, match="missed tol"):
            _warn_if_unconverged(fake, 1e-10, "test")

    def test_converged_columns_silent(self, small_er_graph):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            effective_resistances_all_edges(small_er_graph, method="solve")


class TestResistanceCertificate:
    def test_identity_holds_any_epsilon(self, small_er_graph):
        from repro.core.certificates import certify_resistances

        cert = certify_resistances(small_er_graph, small_er_graph, num_pairs=8, seed=0)
        assert cert.num_pairs_used == 8
        assert cert.holds(0.1)
        assert cert.epsilon_refuted_below == pytest.approx(0.0, abs=1e-6)

    def test_gross_upscaling_refuted_even_for_large_epsilon(self, small_er_graph):
        """The lower resistance bound binds for every epsilon, including >= 1."""
        from repro.core.certificates import certify_resistances

        inflated = small_er_graph.scaled(1e6)  # resistances shrink by 1e6
        cert = certify_resistances(small_er_graph, inflated, num_pairs=8, seed=1)
        assert cert.ratio_max < 1e-5
        assert not cert.holds(1.5)
        assert not cert.holds(0.5)
        assert cert.epsilon_refuted_below > 1.0

    def test_zero_probes_is_vacuous_not_refuted(self):
        from repro.core.certificates import certify_resistances

        singletons = Graph(6)  # no edges, all-singleton components
        cert = certify_resistances(singletons, singletons, num_pairs=8, seed=0)
        assert cert.num_pairs_used == 0
        assert np.isnan(cert.ratio_min)
        assert np.isnan(cert.epsilon_refuted_below)
        assert cert.holds(0.1)  # vacuously consistent, not refuted

    def test_malformed_probe_pairs_are_refused(self):
        from repro.core.certificates import certify_resistances

        path = gen.path_graph(6)
        # Two triples are not three pairs.
        with pytest.raises(GraphError, match="shape"):
            certify_resistances(path, path, pairs=[(0, 1, 2), (3, 4, 5)])
        with pytest.raises(GraphError, match="integers"):
            certify_resistances(path, path, pairs=[(0.5, 2.9)])

    def test_disconnection_shows_as_infinite_and_fails(self, small_er_graph):
        from repro.core.certificates import certify_resistances

        empty = small_er_graph.select_edges(
            np.zeros(small_er_graph.num_edges, dtype=bool)
        )
        cert = certify_resistances(small_er_graph, empty, num_pairs=4, seed=2)
        assert np.isinf(cert.ratio_max)
        assert not cert.holds(2.0)
        assert cert.epsilon_refuted_below == pytest.approx(1.0)


class TestSampleComponentPairs:
    def test_exact_count_on_fragmented_graph(self):
        labels = np.repeat(np.arange(10), 3)  # 10 components of size 3
        rng = np.random.default_rng(0)
        pairs = sample_component_pairs(labels, 50, rng)
        assert pairs.shape == (50, 2)
        assert np.all(labels[pairs[:, 0]] == labels[pairs[:, 1]])
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_all_singletons_returns_empty(self):
        labels = np.arange(8)
        pairs = sample_component_pairs(labels, 5, np.random.default_rng(0))
        assert pairs.shape == (0, 2)

    def test_weighted_by_pair_count(self):
        # One size-20 component and one size-2: the big one has C(20,2)=190
        # of the 191 pairs and should absorb almost every draw.
        labels = np.array([0] * 20 + [1] * 2)
        rng = np.random.default_rng(1)
        pairs = sample_component_pairs(labels, 400, rng)
        big = np.sum(labels[pairs[:, 0]] == 0)
        assert big > 350

    def test_matches_components_of_real_graph(self, triangle_graph):
        graph = disjoint_union(triangle_graph, triangle_graph)
        labels = connected_components(graph)
        pairs = sample_component_pairs(labels, 12, np.random.default_rng(2))
        assert pairs.shape == (12, 2)
        assert np.all(labels[pairs[:, 0]] == labels[pairs[:, 1]])


class TestPreconditionerShape:
    """A preconditioner must map an ``(n, c)`` residual block to ``(n, c)``."""

    def test_vector_style_preconditioner_on_one_column(self, small_er_graph):
        # r / diag broadcasts an (n, 1) block to (n, n).
        lap = small_er_graph.laplacian()
        diag = lap.diagonal()
        n = small_er_graph.num_vertices
        rhs = np.random.default_rng(5).standard_normal((n, 1))
        rhs -= rhs.mean(axis=0)
        expected = rf"shape \({n}, {n}\) for a residual block of shape \({n}, 1\)"
        with pytest.raises(ValueError, match=expected):
            laplacian_solve_many(lap, rhs, preconditioner=lambda r: r / diag)

    def test_shape_checked_after_the_first_application(self, small_er_graph):
        lap = small_er_graph.laplacian()
        diag = lap.diagonal()[:, None]
        n = small_er_graph.num_vertices
        calls = []

        def drops_a_row_later(r):
            calls.append(r.shape)
            z = r / diag
            return z if len(calls) == 1 else z[:-1]

        rhs = np.random.default_rng(6).standard_normal((n, 3))
        rhs -= rhs.mean(axis=0)
        expected = rf"shape \({n - 1}, 3\) for a residual block of shape \({n}, 3\)"
        with pytest.raises(ValueError, match=expected):
            laplacian_solve_many(lap, rhs, preconditioner=drops_a_row_later)
        assert len(calls) == 2


class TestChainPreconditionedBlockCG:
    """PR 6: the blocked solver with a Peng–Spielman chain preconditioner."""

    def _chain_setup(self, graph):
        from repro.solvers.chain import build_preconditioner_chain, chain_preconditioner
        from repro.solvers.work_model import chain_work_model

        chain = build_preconditioner_chain(graph, seed=0)
        return chain_preconditioner(chain), chain_work_model(chain).work_per_application

    def test_preconditioned_matches_plain_and_pinv(self, weighted_er_graph):
        lap = weighted_er_graph.laplacian()
        pre, work_per_app = self._chain_setup(weighted_er_graph)
        rng = np.random.default_rng(21)
        rhs = rng.standard_normal((weighted_er_graph.num_vertices, 7))
        rhs -= rhs.mean(axis=0)
        plain = laplacian_solve_many(lap, rhs, tol=1e-11)
        chained = laplacian_solve_many(
            lap, rhs, tol=1e-11, preconditioner=pre,
            precond_work_per_application=work_per_app,
        )
        pinv = laplacian_pseudoinverse(lap)
        assert chained.all_converged
        assert np.allclose(chained.x, plain.x, atol=1e-7)
        assert np.allclose(chained.x, pinv @ rhs, atol=1e-6)

    def test_block_size_invariance_with_preconditioner(self, small_er_graph):
        lap = small_er_graph.laplacian()
        pre, work_per_app = self._chain_setup(small_er_graph)
        rng = np.random.default_rng(22)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 10))
        rhs -= rhs.mean(axis=0)
        a = laplacian_solve_many(lap, rhs, tol=1e-11, block_size=3,
                                 preconditioner=pre,
                                 precond_work_per_application=work_per_app)
        b = laplacian_solve_many(lap, rhs, tol=1e-11, block_size=10,
                                 preconditioner=pre,
                                 precond_work_per_application=work_per_app)
        assert np.allclose(a.x, b.x, atol=1e-7)
        # Per-block state is independent, so per-column effort is identical too.
        assert np.array_equal(a.iterations, b.iterations)
        assert a.precond_applications == b.precond_applications

    def test_work_strictly_counts_preconditioner_applications(self, small_er_graph):
        """Regression: BatchSolveResult.work must charge every z = M^-1 r."""
        lap = small_er_graph.laplacian().tocsr()
        pre, work_per_app = self._chain_setup(small_er_graph)
        assert work_per_app > 0
        rng = np.random.default_rng(23)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 5))
        rhs -= rhs.mean(axis=0)
        batch = laplacian_solve_many(lap, rhs, tol=1e-9, preconditioner=pre,
                                     precond_work_per_application=work_per_app)
        assert batch.precond_applications > 0
        assert batch.work == pytest.approx(
            lap.nnz * batch.matvecs + work_per_app * batch.precond_applications
        )
        assert batch.work > lap.nnz * batch.matvecs  # strictly more than matvecs alone
        plain = laplacian_solve_many(lap, rhs, tol=1e-9)
        assert plain.precond_applications == 0
        assert plain.work == pytest.approx(lap.nnz * plain.matvecs)

    def test_compression_with_mixed_easy_hard_columns(self, small_er_graph):
        """Frozen-column compression must keep preconditioned state consistent.

        Eight of twelve columns are zero, so they freeze at iteration 0 and
        the live block is physically compressed on the first loop pass
        (the >= half-frozen rule) while the preconditioner is attached; the
        dense random columns must still land on the pseudoinverse solution.
        """
        g = small_er_graph
        n = g.num_vertices
        lap = g.laplacian()
        pre, work_per_app = self._chain_setup(g)
        rng = np.random.default_rng(24)
        rhs = np.zeros((n, 12))
        rhs[:, 8:] = rng.standard_normal((n, 4))  # hard: dense random
        rhs[:, 8:] -= rhs[:, 8:].mean(axis=0)
        batch = laplacian_solve_many(lap, rhs, tol=1e-11, block_size=12,
                                     preconditioner=pre,
                                     precond_work_per_application=work_per_app)
        assert batch.all_converged
        pinv = laplacian_pseudoinverse(lap)
        assert np.allclose(batch.x, pinv @ rhs, atol=1e-6)
        # The zero columns froze immediately (forcing the compression) and
        # stayed exactly zero; the hard ones did real work.
        assert np.all(batch.iterations[:8] == 0)
        assert np.all(batch.x[:, :8] == 0.0)
        assert np.all(batch.iterations[8:] > 0)

    def test_apply_chain_blocked_matches_columnwise(self, small_er_graph):
        from repro.solvers.chain import apply_chain, build_preconditioner_chain

        chain = build_preconditioner_chain(small_er_graph, seed=0)
        rng = np.random.default_rng(25)
        block = rng.standard_normal((small_er_graph.num_vertices, 6))
        blocked = apply_chain(chain, block)
        assert blocked.shape == block.shape
        for j in range(block.shape[1]):
            assert np.allclose(blocked[:, j], apply_chain(chain, block[:, j]),
                               atol=1e-12)
        with pytest.raises(ValueError):
            apply_chain(chain, np.zeros((3, 2, 1)))

    def test_validate_rejects_non_laplacian(self, small_er_graph):
        """Opt-in deflate contract check: deflation assumes a Laplacian."""
        bad = sp.identity(12, format="csr")  # SPD, but row sums are 1, not 0
        rhs = np.zeros((12, 2))
        with pytest.raises(ValueError, match="not a graph Laplacian"):
            laplacian_solve_many(bad, rhs, validate=True)
        laplacian_solve_many(bad, rhs)  # default: taken on faith (documented)
        lap = small_er_graph.laplacian()
        good_rhs = np.zeros((small_er_graph.num_vertices, 2))
        assert laplacian_solve_many(lap, good_rhs, validate=True).all_converged


class TestSolverKnobRouting:
    """solver="cg"|"chain"|"auto" through the resistance / certification layer."""

    def test_pairs_chain_matches_cg_and_pinv(self, weighted_er_graph):
        pairs = np.array([(0, 5), (3, 17), (10, 40), (2, 60)])
        by_cg = effective_resistances_of_pairs(
            weighted_er_graph, pairs, method="solve", solver="cg"
        )
        by_chain = effective_resistances_of_pairs(
            weighted_er_graph, pairs, method="solve", solver="chain"
        )
        by_pinv = effective_resistances_of_pairs(weighted_er_graph, pairs, method="pinv")
        assert np.allclose(by_chain, by_cg, rtol=1e-6)
        assert np.allclose(by_chain, by_pinv, rtol=1e-6)

    def test_all_edges_and_leverage_chain_parity(self, small_er_graph):
        by_chain = effective_resistances_all_edges(
            small_er_graph, method="solve", solver="chain"
        )
        by_pinv = effective_resistances_all_edges(small_er_graph, method="pinv")
        assert np.allclose(by_chain, by_pinv, rtol=1e-6)
        lev_chain = leverage_scores(small_er_graph, method="solve", solver="chain")
        lev_pinv = leverage_scores(small_er_graph, method="pinv")
        assert np.allclose(lev_chain, lev_pinv, rtol=1e-6)

    def test_jl_chain_same_seed_matches_cg(self, small_er_graph):
        """Same seed -> same sign matrix; only solver tolerance separates them."""
        with pytest.warns(UserWarning):
            by_cg = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=16, seed=7, solver="cg",
                solver_tol=1e-10,
            ).resistances
            by_chain = approximate_effective_resistances_detailed(
                small_er_graph, num_directions=16, seed=7, solver="chain",
                solver_tol=1e-10,
            ).resistances
        assert np.allclose(by_chain, by_cg, rtol=1e-6)

    def test_disconnected_graph_chain_solver(self, triangle_graph):
        part = gen.erdos_renyi_graph(20, 0.3, seed=31, ensure_connected=True)
        graph = disjoint_union(part, disjoint_union(part, triangle_graph))
        pairs = [(0, 1), (21, 30), (41, 42)]
        by_chain = effective_resistances_of_pairs(
            graph, pairs, method="solve", solver="chain"
        )
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert np.allclose(by_chain, by_pinv, rtol=1e-6)

    def test_solver_cg_is_bit_identical_to_default(self, weighted_er_graph):
        """solver="cg" must be operation-for-operation the PR 5 path."""
        pairs = np.array([(0, 5), (3, 17), (10, 40)])
        default = effective_resistances_of_pairs(weighted_er_graph, pairs, method="solve")
        explicit = effective_resistances_of_pairs(
            weighted_er_graph, pairs, method="solve", solver="cg"
        )
        assert np.array_equal(default, explicit)
        all_default = effective_resistances_all_edges(weighted_er_graph, method="solve")
        all_explicit = effective_resistances_all_edges(
            weighted_er_graph, method="solve", solver="cg"
        )
        assert np.array_equal(all_default, all_explicit)

    def test_chain_built_once_per_graph_across_chunks(self):
        """One certification run builds its chain exactly once (cache key hit)."""
        from repro.resistance.solver_select import ResistanceSolveStats

        graph = gen.erdos_renyi_graph(70, 0.15, seed=77, ensure_connected=True)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning):
            approximate_effective_resistances_detailed(
                graph, num_directions=24, seed=1, solver="chain", block_size=4,
                stats=stats,
            )
        assert stats.solver == "chain"
        assert stats.solves > 1  # several chunks ...
        assert stats.chain_builds == 1  # ... one build
        assert stats.precond_applications > 0
        repeat = ResistanceSolveStats()
        with pytest.warns(UserWarning):
            approximate_effective_resistances_detailed(
                graph, num_directions=24, seed=1, solver="chain", block_size=4,
                stats=repeat,
            )
        assert repeat.chain_builds == 0  # cache hit: no new build

    def test_stats_accumulate_on_plain_path(self, small_er_graph, monkeypatch):
        from repro.resistance import solver_select
        from repro.resistance.solver_select import ResistanceSolveStats

        # The gate rejects this ER graph; with no dense factor it runs plain CG.
        monkeypatch.setattr(solver_select, "DENSE_FALLBACK_LIMIT", 0)
        stats = ResistanceSolveStats()
        effective_resistances_all_edges(
            small_er_graph, method="solve", solver="cg", stats=stats
        )
        assert stats.solver == "cg"
        assert stats.iterations_total > 0
        assert stats.matvecs > 0
        assert stats.precond_applications == 0
        assert stats.work > 0
        assert stats.iterations_mean > 0

    def test_invalid_solver_rejected(self, small_er_graph):
        with pytest.raises(ValueError, match="unknown solver"):
            effective_resistances_all_edges(
                small_er_graph, method="solve", solver="bogus"
            )

    def test_certify_resistances_threads_solver(self, small_er_graph):
        from repro.core.certificates import certify_resistances

        cert_cg = certify_resistances(
            small_er_graph, small_er_graph, num_pairs=6, seed=0, solver="cg"
        )
        cert_chain = certify_resistances(
            small_er_graph, small_er_graph, num_pairs=6, seed=0, solver="chain"
        )
        assert cert_chain.holds(0.1)
        assert cert_chain.epsilon_refuted_below == pytest.approx(
            cert_cg.epsilon_refuted_below, abs=1e-6
        )


class TestPengSpielmanBlockedDelegation:
    def test_2d_rhs_matches_per_column_solves(self, small_er_graph):
        from repro.core.config import SparsifierConfig
        from repro.solvers.peng_spielman import solve_laplacian

        config = SparsifierConfig.practical(bundle_t=1)
        rng = np.random.default_rng(33)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 5))
        rhs -= rhs.mean(axis=0)
        report = solve_laplacian(small_er_graph, rhs, tol=1e-10, config=config, seed=2)
        assert report.batch is not None
        assert report.result.converged
        assert report.batch.precond_applications > 0
        assert report.result.work == pytest.approx(report.batch.work)
        for j in range(rhs.shape[1]):
            single = solve_laplacian(
                small_er_graph, rhs[:, j], tol=1e-10, chain=report.chain
            )
            assert single.batch is None
            a = report.x[:, j] - report.x[:, j].mean()
            b = single.x - single.x.mean()
            assert np.allclose(a, b, atol=1e-6)

    def test_3d_rhs_rejected(self, small_er_graph):
        from repro.solvers.peng_spielman import solve_laplacian

        with pytest.raises(ValueError, match="1-D or 2-D"):
            solve_laplacian(small_er_graph, np.zeros((4, 2, 2)))
