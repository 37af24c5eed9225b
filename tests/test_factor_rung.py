"""The factor rung of the ``solver="cg"`` ladder (``factor → cg → pinv``).

:class:`repro.resistance.solver_select.FactorGate` admits a Laplacian when
the envelope of its reverse Cuthill–McKee ordering is at most ``nnz(L)``
and then answers every column with one grounded sparse factorization; a
Laplacian it rejects with ``n <= DENSE_FALLBACK_LIMIT`` is answered by
one grounded dense Cholesky instead.  Pinned here, for both kinds:
agreement with the dense pseudoinverse in both right-hand-side layouts
(connected, path-like, grid and multi-component graphs), the JL sketch
against plain CG at the same seed, the gate's decisions on the suite's
graphs, one factorization per call across chunks, the ``factor → cg``
fallbacks, the dense kind's memory, ``method="auto"``'s choice, and one
component labelling per graph in a certificate.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from repro.core.certificates import certify_resistances
from repro.core.sparsify import parallel_sparsify
from repro.graphs import generators as gen
from repro.graphs.connectivity import connected_components, sample_component_pairs
from repro.graphs.graph import Graph
from repro.graphs.operations import disjoint_union
from repro.resistance import exact, solver_select
from repro.resistance.approx import approximate_effective_resistances_detailed
from repro.resistance.exact import (
    effective_resistances_all_edges,
    effective_resistances_of_pairs,
)
from repro.resistance.solver_select import FactorGate, ResistanceSolveStats


def _banded():
    return gen.banded_graph(600, 20, weight_range=(0.1, 10.0), seed=3)


def _with_an_isolated_vertex(parts):
    return Graph(parts.num_vertices + 1, parts.edge_u, parts.edge_v, parts.edge_weights)


def _two_components_and_an_isolated_vertex():
    return _with_an_isolated_vertex(
        disjoint_union(gen.banded_graph(40, 3, weight_range=(0.5, 2.0), seed=4), gen.path_graph(30))
    )


def _dense_er():
    """ER at e2ebench dense-er's density, m / (n log2 n) = 12.6."""
    n = 600
    p = 2.0 * 12.6 * math.log2(n) / (n - 1)
    return gen.erdos_renyi_graph(n, p, seed=921, ensure_connected=True)


def _dense_er_and_a_grid_and_an_isolated_vertex():
    return _with_an_isolated_vertex(
        disjoint_union(
            gen.erdos_renyi_graph(80, 0.2, seed=5, ensure_connected=True), gen.grid_graph(8, 8)
        )
    )


def _fresh(graph):
    """Same edges, no cached Laplacian or labels."""
    return Graph(graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights)


def _relative(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _pairs_across(graph, count, seed):
    """``count`` distinct pairs inside components, touching more vertices than pairs."""
    labels = connected_components(graph)
    pairs = sample_component_pairs(labels, 4 * count, np.random.default_rng(seed))
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    _, first = np.unique(lo * graph.num_vertices + hi, return_index=True)
    return pairs[np.sort(first)][:count]


def _force_cg(monkeypatch):
    """Make the gate take neither factorization, so ``"cg"`` means plain CG."""
    monkeypatch.setattr(solver_select, "FACTOR_ENVELOPE_LIMIT", 0.0)
    monkeypatch.setattr(solver_select, "DENSE_FALLBACK_LIMIT", 0)


@pytest.fixture(scope="module")
def banded_and_sparsifier():
    graph = _banded()
    return graph, parallel_sparsify(graph, epsilon=0.5, seed=5).sparsifier


class TestGate:
    def test_envelope_matches_a_row_by_row_count(self):
        graph = _two_components_and_an_isolated_vertex()
        gate = FactorGate(graph.laplacian())
        dense = graph.laplacian().toarray()[np.ix_(gate.order, gate.order)]
        expected = 0
        for i, row in enumerate(dense):
            nonzero = np.flatnonzero(row)
            if nonzero.size:
                expected += i - nonzero[0]
        assert gate.envelope == expected
        assert gate.envelope_ratio == pytest.approx(expected / graph.laplacian().nnz)

    def test_admits_low_fill_and_rejects_dense_graphs(self, small_er_graph, medium_er_graph):
        assert FactorGate(_banded().laplacian()).admits
        assert FactorGate(gen.path_graph(200).laplacian()).admits
        for graph in (small_er_graph, medium_er_graph, _dense_er()):
            gate = FactorGate(graph.laplacian())
            assert not gate.admits
            assert gate.envelope_ratio > solver_select.FACTOR_ENVELOPE_LIMIT

    def test_fill_stays_inside_the_envelope(self):
        graph = _banded()
        gate = FactorGate(graph.laplacian())
        assert gate.factorize()
        assert not gate.factorize()  # built once
        # Structural nonzeros; SuperLU's own count (``fill``) also holds
        # the padding of its dense supernode blocks.
        factor_nnz = gate._lu.L.nnz + gate._lu.U.nnz
        assert factor_nnz <= 2 * gate.envelope + 2 * graph.num_vertices
        assert gate.fill * graph.laplacian().nnz >= factor_nnz


class TestAgreementWithPinv:
    @pytest.mark.parametrize(
        "name",
        [
            "banded", "sparsifier", "path", "two-components",
            "dense-er", "grid", "dense-two-components",
        ],
    )
    def test_both_layouts_match_pinv(self, name, banded_and_sparsifier):
        dense = name in ("dense-er", "grid", "dense-two-components")
        graph = {
            "banded": banded_and_sparsifier[0],
            "sparsifier": banded_and_sparsifier[1],
            "path": gen.path_graph(300, weight=2.0),
            "two-components": _two_components_and_an_isolated_vertex(),
            "dense-er": _dense_er(),
            "grid": gen.grid_graph(20, 20),
            "dense-two-components": _dense_er_and_a_grid_and_an_isolated_vertex(),
        }[name]
        gate = FactorGate(graph.laplacian())
        assert (gate.admits, gate.dense) == (not dense, dense)
        # Pair-indicator layout: more distinct vertices than pairs.
        pairs = _pairs_across(graph, 40, seed=1)
        stats = ResistanceSolveStats()
        by_factor = effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert _relative(by_factor, by_pinv) < 1e-9
        assert stats.factorizations == 1
        assert stats.dense_factorizations == int(dense)
        assert stats.factor_columns == stats.columns == len(pairs)
        assert stats.iterations_total == 0
        assert not stats.fallbacks
        # Vertex-indicator layout: all edges, n columns instead of m (one
        # factorization per component, each of the whole graph's kind).
        stats = ResistanceSolveStats()
        by_factor = effective_resistances_all_edges(graph, method="solve", stats=stats)
        by_pinv = effective_resistances_all_edges(graph, method="pinv")
        assert _relative(by_factor, by_pinv) < 1e-9
        assert stats.factorizations >= 1
        assert stats.dense_factorizations == (stats.factorizations if dense else 0)
        assert stats.iterations_total == 0
        assert not stats.fallbacks

    def test_jl_sketch_matches_plain_cg_at_the_same_seed(self, monkeypatch):
        graph = _banded()
        stats = ResistanceSolveStats()
        by_factor = approximate_effective_resistances_detailed(
            graph, num_directions=200, seed=7, solver_tol=1e-12, stats=stats
        )
        assert stats.solves == 2  # two chunks of 128 directions ...
        assert stats.factorizations == 1  # ... one factorization
        _force_cg(monkeypatch)
        by_cg = approximate_effective_resistances_detailed(
            graph, num_directions=200, seed=7, solver_tol=1e-12
        )
        assert by_cg.iterations_total > 0
        assert _relative(by_factor.resistances, by_cg.resistances) < 1e-8


class TestOneFactorizationPerCall:
    def test_three_chunks_share_one_factorization(self):
        graph = _banded()
        pairs = np.stack([np.arange(300), np.arange(300) + 300], axis=1)
        stats = ResistanceSolveStats()
        values = effective_resistances_of_pairs(
            graph, pairs, method="solve", block_size=128, stats=stats
        )
        assert stats.solves == 3
        assert stats.factorizations == 1
        assert stats.factor_columns == 300
        assert _relative(values, effective_resistances_of_pairs(graph, pairs, method="pinv")) < 1e-9


class TestFallbacks:
    def test_failed_factorization_falls_back_to_cg(self, monkeypatch):
        graph = _banded()
        pairs = _pairs_across(graph, 40, seed=2)

        def broken(*args):
            raise RuntimeError("injected factorization failure")

        monkeypatch.setattr(FactorGate, "_factor", broken)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning, match="factor -> cg"):
            degraded = effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        assert len(stats.fallbacks) == 1
        event = stats.fallbacks[0]
        assert (event.from_solver, event.to_solver, event.columns) == ("factor", "cg", len(pairs))
        assert "injected factorization failure" in event.reason
        assert stats.factorizations == 0
        _force_cg(monkeypatch)
        plain = effective_resistances_of_pairs(graph, pairs, method="solve")
        assert np.array_equal(degraded, plain)

    def test_columns_that_miss_tol_go_to_cg_alone(self, monkeypatch):
        graph = _banded()
        pairs = _pairs_across(graph, 40, seed=3)
        real = FactorGate._triangular_solve

        def perturbed(self, block):
            x = real(self, block)
            x[:, [0, 3]] += 1e-3
            return x

        monkeypatch.setattr(FactorGate, "_triangular_solve", perturbed)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning, match="factor -> cg"):
            values = effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        assert [(e.from_solver, e.to_solver, e.columns) for e in stats.fallbacks] == [
            ("factor", "cg", 2)
        ]
        assert stats.factor_columns == len(pairs) - 2
        assert stats.iterations_total > 0
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert _relative(values, by_pinv) < 1e-8

    def test_happy_path_warns_nothing(self, banded_and_sparsifier):
        graph, sparsifier = banded_and_sparsifier
        stats = ResistanceSolveStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_resistances(
                graph, sparsifier, num_pairs=64, seed=9, method="solve", stats=stats
            )
        assert cert.num_pairs_used == 64
        assert stats.factorizations == 2  # G and H, one each
        assert not stats.fallbacks
        assert stats.solver == "cg"

    def test_rejected_gate_records_nothing(self, small_er_graph, monkeypatch):
        _force_cg(monkeypatch)
        stats = ResistanceSolveStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            effective_resistances_all_edges(small_er_graph, method="solve", stats=stats)
        assert stats.factorizations == 0
        assert stats.factor_columns == 0
        assert not stats.fallbacks


class TestAutoMethod:
    def test_auto_takes_the_ladder_when_the_gate_admits(self):
        graph = _banded()
        stats = ResistanceSolveStats()
        by_auto = effective_resistances_all_edges(graph, stats=stats)
        assert stats.factorizations == 1
        assert _relative(by_auto, effective_resistances_all_edges(graph, method="pinv")) < 1e-9

    def test_auto_takes_the_dense_rung_on_dense_graphs(self, monkeypatch):
        graph = _dense_er()
        pairs = _pairs_across(graph, 16, seed=4)
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")

        def no_pinv(laplacian):
            raise AssertionError("auto took the pseudoinverse")

        monkeypatch.setattr(exact, "laplacian_pseudoinverse", no_pinv)
        stats = ResistanceSolveStats()
        by_auto = effective_resistances_of_pairs(graph, pairs, stats=stats)
        assert stats.factorizations == stats.dense_factorizations == 1
        assert stats.iterations_total == 0
        assert _relative(by_auto, by_pinv) < 1e-9

    def test_rejected_graph_past_the_limit_runs_cg(self):
        n = solver_select.DENSE_FALLBACK_LIMIT + 1
        graph = gen.barabasi_albert_graph(n, 4, seed=8)
        gate = FactorGate(graph.laplacian())
        assert not gate.admits and not gate.dense
        stats = ResistanceSolveStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            effective_resistances_of_pairs(graph, _pairs_across(graph, 8, seed=8), stats=stats)
        assert stats.factorizations == 0
        assert stats.iterations_total > 0
        assert not stats.fallbacks

    def test_auto_with_chain_keeps_pinv_below_the_limit(self):
        graph = _banded()
        pairs = _pairs_across(graph, 8, seed=5)
        stats = ResistanceSolveStats()
        by_auto = effective_resistances_of_pairs(graph, pairs, solver="chain", stats=stats)
        assert stats.solves == 0
        assert np.array_equal(by_auto, effective_resistances_of_pairs(graph, pairs, method="pinv"))

    def test_dense_limits_are_one_constant(self):
        assert exact._PINV_LIMIT == solver_select.DENSE_FALLBACK_LIMIT == 2500


class TestDenseRung:
    def test_stats_charge_the_dense_factor(self):
        graph = _dense_er()
        n, nnz = graph.num_vertices, graph.laplacian().nnz
        pairs = _pairs_across(graph, 16, seed=6)
        stats = ResistanceSolveStats()
        effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        assert stats.factor_fill == pytest.approx(n * (n + 1) / 2 / nnz)
        assert stats.work == pytest.approx(n ** 3 / 3 + len(pairs) * (n * n + nnz))
        assert stats.matvecs == len(pairs)

    def test_failed_dense_build_falls_back_to_cg(self, monkeypatch):
        graph = _dense_er()
        pairs = _pairs_across(graph, 40, seed=2)

        def broken(*args):
            raise np.linalg.LinAlgError("injected: leading minor not positive definite")

        monkeypatch.setattr(FactorGate, "_dense_factor", broken)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning, match="factor -> cg"):
            degraded = effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        assert len(stats.fallbacks) == 1
        event = stats.fallbacks[0]
        assert (event.from_solver, event.to_solver, event.columns) == ("factor", "cg", len(pairs))
        assert "LinAlgError" in event.reason
        assert stats.factorizations == stats.dense_factorizations == 0
        _force_cg(monkeypatch)
        plain = effective_resistances_of_pairs(graph, pairs, method="solve")
        assert np.array_equal(degraded, plain)

    def test_failed_dense_build_is_not_retried_across_chunks(self, monkeypatch):
        graph = _dense_er()
        pairs = _pairs_across(graph, 40, seed=2)
        builds = []

        def broken(*args):
            builds.append(1)
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(FactorGate, "_dense_factor", broken)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning, match="factor -> cg"):
            effective_resistances_of_pairs(
                graph, pairs, method="solve", block_size=16, stats=stats
            )
        assert len(builds) == 1
        assert [event.columns for event in stats.fallbacks] == [16, 16, 8]

    def test_columns_that_miss_tol_go_to_cg_alone(self, monkeypatch):
        graph = _dense_er()
        pairs = _pairs_across(graph, 40, seed=3)
        real = FactorGate._triangular_solve

        def perturbed(self, block):
            x = real(self, block)
            x[:, [0, 3]] += np.linspace(0.0, 1e-3, x.shape[0])[:, None]
            return x

        monkeypatch.setattr(FactorGate, "_triangular_solve", perturbed)
        stats = ResistanceSolveStats()
        with pytest.warns(UserWarning, match="factor -> cg"):
            values = effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
        assert [(e.from_solver, e.to_solver, e.columns) for e in stats.fallbacks] == [
            ("factor", "cg", 2)
        ]
        assert stats.dense_factorizations == 1
        assert stats.factor_columns == len(pairs) - 2
        assert stats.iterations_total > 0
        by_pinv = effective_resistances_of_pairs(graph, pairs, method="pinv")
        assert _relative(values, by_pinv) < 1e-8

    def test_peak_memory_stays_below_two_dense_matrices(self):
        n = 2000
        graph = gen.barabasi_albert_graph(n, 4, seed=9)
        pairs = _pairs_across(graph, 64, seed=9)
        stats = ResistanceSolveStats()
        tracemalloc.start()
        try:
            effective_resistances_of_pairs(graph, pairs, method="solve", stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.dense_factorizations == 1
        assert peak < 2 * 8 * n * n

    def test_certify_dense_er_factors_g_and_h_once_each(self):
        graph = _dense_er()
        sparsifier = parallel_sparsify(graph, epsilon=0.5, seed=5).sparsifier
        stats = ResistanceSolveStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_resistances(
                graph, sparsifier, num_pairs=64, seed=9, method="solve", stats=stats
            )
        assert cert.num_pairs_used == 64
        assert stats.factorizations == stats.dense_factorizations == 2
        assert stats.iterations_total == 0
        assert not stats.fallbacks


class TestOneLabellingPerGraph:
    def test_certify_labels_each_graph_once(self, banded_and_sparsifier, monkeypatch):
        graph, sparsifier = (_fresh(g) for g in banded_and_sparsifier)
        calls = []
        real = csgraph.connected_components

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        # repro.graphs.connectivity calls it through the csgraph module;
        # the gate labels a Laplacian it was given no labels for.
        monkeypatch.setattr(csgraph, "connected_components", counting)
        monkeypatch.setattr(solver_select, "connected_components", counting)
        stats = ResistanceSolveStats()
        certify_resistances(graph, sparsifier, num_pairs=64, seed=9, method="solve", stats=stats)
        assert stats.factorizations == 2
        assert len(calls) == 2  # G and H, once each
