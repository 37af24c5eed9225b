"""Deterministic fault-injection tests (``-m faults``).

End-to-end rehearsals of the resilience layer: injected worker crashes
recovered by retry policies (bit-identically to a run that never
crashed), backend fail-fast parity under injected faults, the solver
degradation ladder catching a poisoned preconditioner inside a real
certification run, and the chain cache surviving an eviction storm.

Everything here is seeded and schedule-independent: fault plans are pure
functions of ``(item index, attempt number)``, so the same test is the
same test on every backend and machine.  The one exception is where a
failure part-way through a job lands (``fail_once_part_way`` counts calls
across jobs): on the thread backend that depends on the schedule, but
what the test asserts — one retry, outputs equal to the fault-free
run — does not.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, SparsifyRequest
from repro.core import sparsify as sparsify_module
from repro.core.certificates import certify_resistances
from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import FaultInjectionError
from repro.graphs import generators
from repro.parallel.backends import ExecutionBackend
from repro.parallel.failure import FailurePolicy
from repro.resistance import solver_select
from repro.resistance.solver_select import ResistanceSolveStats
from repro.solvers.chain import ChainCache
from repro.spanners import distributed_spanner
from repro.testing.faults import (
    FaultPlan,
    InjectingBackend,
    cache_eviction_storm,
    nan_poisoned_preconditioner,
)

pytestmark = pytest.mark.faults

PARITY_BACKENDS = ["serial", "thread", "process"]


def _double(x):
    return x * 2


def _batch_graphs(count=4):
    return [
        generators.erdos_renyi_graph(40, 0.3, seed=i, ensure_connected=True)
        for i in range(count)
    ]


def _edges(result):
    g = result.sparsifier
    return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())


def _run_many(graphs, backend=None, **kwargs):
    """``Engine.run_many`` of ``koutis`` at epsilon 0.5 and seed 7.

    A config names its backend by string, so a backend *instance* (an
    :class:`InjectingBackend` with its own plan) is substituted through
    ``SparsifierConfig.execution_backend`` for the duration of the call.
    """
    if isinstance(backend, ExecutionBackend):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SparsifierConfig, "execution_backend", lambda config: backend)
            return _run_many(graphs, **kwargs)
    request = SparsifyRequest(
        method="koutis", epsilon=0.5, seed=7, config=SparsifierConfig(backend=backend)
    )
    return Engine(request).run_many(graphs, **kwargs)


class TestInjectingBackend:
    def test_plain_map_without_policy_fails_fast(self):
        backend = InjectingBackend(plan=FaultPlan(crash_index=1, crash_attempts=99))
        with pytest.raises(FaultInjectionError, match="item 1"):
            backend.map(_double, [0, 1, 2])

    def test_transient_crash_recovered_under_retry(self):
        backend = InjectingBackend(plan=FaultPlan(crash_index=2, crash_attempts=1))
        policy = FailurePolicy(on_error="retry", max_attempts=2)
        outcome = backend.map_outcomes(_double, [0, 1, 2, 3], policy=policy)
        assert outcome.values == [0, 2, 4, 6]
        assert outcome.attempts == [1, 1, 2, 1]
        assert not outcome.failures

    def test_permanent_crash_collected(self):
        backend = InjectingBackend(plan=FaultPlan(crash_index=1, crash_attempts=99))
        policy = FailurePolicy(on_error="collect", max_attempts=2)
        outcome = backend.map_outcomes(_double, [0, 1, 2], policy=policy)
        assert outcome.values == [0, None, 4]
        assert outcome.failures[0].describe() == (
            1, "FaultInjectionError", "injected worker crash (item 1, attempt 2)", 2,
        )


class TestBackendFailFastParity:
    """Satellite: all backends behave identically under injected faults."""

    @pytest.mark.parametrize("inner", PARITY_BACKENDS)
    def test_raise_parity(self, inner):
        backend = InjectingBackend(
            inner=inner,
            plan=FaultPlan(crash_index=2, crash_attempts=99, message="parity crash"),
        )
        with pytest.raises(FaultInjectionError, match=r"parity crash \(item 2"):
            backend.map(_double, list(range(6)))

    def test_collect_failure_identity_is_backend_independent(self):
        plan = FaultPlan(crash_index=3, crash_attempts=99, message="parity crash")
        policy = FailurePolicy(on_error="collect", max_attempts=2)
        described = {}
        values = {}
        for inner in PARITY_BACKENDS:
            backend = InjectingBackend(inner=inner, plan=plan)
            outcome = backend.map_outcomes(_double, list(range(6)), policy=policy)
            described[inner] = [record.describe() for record in outcome.failures]
            values[inner] = outcome.values
        assert described["serial"] == described["thread"] == described["process"]
        assert values["serial"] == values["thread"] == values["process"]
        assert described["serial"] == [
            (3, "FaultInjectionError", "parity crash (item 3, attempt 2)", 2)
        ]

    def test_retry_values_are_backend_independent(self):
        plan = FaultPlan(crash_index=1, crash_attempts=1)
        policy = FailurePolicy(on_error="retry", max_attempts=3)
        results = {
            inner: InjectingBackend(inner=inner, plan=plan).map_outcomes(
                _double, list(range(5)), policy=policy
            )
            for inner in PARITY_BACKENDS
        }
        for inner in PARITY_BACKENDS:
            assert results[inner].values == results["serial"].values
            assert results[inner].attempts == results["serial"].attempts


class TestBatchRecovery:
    """Acceptance scenario (a): injected crash in a process-backend batch."""

    def test_run_many_recovers_bit_identically_on_process_backend(self):
        graphs = _batch_graphs()
        baseline = _run_many(graphs, backend="serial")

        backend = InjectingBackend(
            inner="process", plan=FaultPlan(crash_index=1, crash_attempts=1)
        )
        policy = FailurePolicy(on_error="retry", max_attempts=3)
        recovered = _run_many(graphs, backend=backend, failure_policy=policy)

        assert not recovered.failures
        assert recovered.attempts == [1, 2, 1, 1]
        for expected, actual in zip(baseline.results, recovered.results):
            assert _edges(expected) == _edges(actual)

    def test_run_many_fail_fast_without_policy(self):
        graphs = _batch_graphs()
        backend = InjectingBackend(
            inner="serial", plan=FaultPlan(crash_index=1, crash_attempts=99)
        )
        with pytest.raises(FaultInjectionError):
            _run_many(graphs, backend=backend)

    def test_run_many_collect_records_permanent_failure(self):
        graphs = _batch_graphs()
        backend = InjectingBackend(
            inner="serial", plan=FaultPlan(crash_index=2, crash_attempts=99)
        )
        policy = FailurePolicy(on_error="collect", max_attempts=2)
        batch = _run_many(graphs, backend=backend, failure_policy=policy)
        assert batch.num_failed == 1
        assert batch.results[2] is None
        assert [r is not None for r in batch.results] == [True, True, False, True]
        assert batch.backend_name == "injecting"
        assert batch.attempts == [1, 1, 2, 1]
        record = batch.failures[0]
        assert record.index == 2
        assert record.error_type == "FaultInjectionError"
        assert record.attempts == 2
        # Surviving jobs are bit-identical to a fault-free run.
        baseline = _run_many(graphs, backend="serial")
        for i in (0, 1, 3):
            assert _edges(batch.results[i]) == _edges(baseline.results[i])

    @pytest.mark.parametrize(
        "method,owner,name,execution",
        [
            pytest.param(
                "koutis", sparsify_module, "parallel_sample", {"backend": "serial"}, id="serial"
            ),
            pytest.param(
                "koutis", sparsify_module, "parallel_sample",
                {"backend": "thread", "max_workers": 2}, id="thread",
            ),
            pytest.param(
                "koutis-distributed", distributed_spanner, "_run_protocol",
                {"backend": "serial"}, id="distributed-serial",
            ),
            pytest.param(
                "koutis-distributed", distributed_spanner, "_run_protocol",
                {"backend": "thread", "max_workers": 2}, id="distributed-thread",
            ),
        ],
    )
    def test_retry_after_failure_part_way_through_a_job(
        self, method, owner, name, execution, fail_once_part_way
    ):
        # On the serial backend the second call is job 0's round 2 (koutis:
        # the job has already split its stream into round streams) or job
        # 0's second bundle component of round 1 (koutis-distributed: the
        # peel calls ``_run_protocol`` once per component, after the round
        # split its component streams).
        graphs = [
            generators.erdos_renyi_graph(120, 0.2, seed=s, ensure_connected=True)
            for s in range(3)
        ]
        request = SparsifyRequest(
            method=method, rho=4, seed=7, config=SparsifierConfig(bundle_t=2, **execution)
        )
        baseline = Engine(request).run_many(graphs)

        fired = fail_once_part_way(owner, name)
        policy = FailurePolicy(on_error="retry", max_attempts=3)
        recovered = Engine(request).run_many(graphs, failure_policy=policy)

        assert fired
        assert not recovered.failures
        assert sorted(recovered.attempts) == [1, 1, 2]
        for expected, actual in zip(baseline.results, recovered.results):
            assert _edges(expected) == _edges(actual)
            assert expected.cost == actual.cost


class TestSolverDegradation:
    """Acceptance scenario (b): poisoned chain-PCG degrades to cg."""

    @pytest.fixture()
    def graph_and_sparsifier(self, medium_er_graph):
        result = parallel_sparsify(medium_er_graph, epsilon=0.5, seed=13)
        return medium_er_graph, result.sparsifier

    def test_certify_resistances_degrades_and_matches_cg(
        self, graph_and_sparsifier, monkeypatch
    ):
        original, sparsifier = graph_and_sparsifier
        baseline = certify_resistances(
            original, sparsifier, num_pairs=8, seed=3, solver="cg", method="solve"
        )

        real = solver_select.chain_preconditioner_for

        def poisoned(graph, stats=None, seed=0):
            precond, work = real(graph, stats=stats, seed=seed)
            return nan_poisoned_preconditioner(precond, work, healthy_applications=0)

        monkeypatch.setattr(solver_select, "chain_preconditioner_for", poisoned)

        stats = ResistanceSolveStats(solver="chain")
        with pytest.warns(UserWarning, match="resistance solver degraded"):
            degraded = certify_resistances(
                original, sparsifier, num_pairs=8, seed=3, solver="chain", method="solve", stats=stats,
            )

        assert stats.fallbacks
        assert any(
            event.from_solver == "chain" and event.to_solver == "cg"
            for event in stats.fallbacks
        )
        # The degraded certificate matches the plain-CG one to solver tolerance.
        assert degraded.ratio_min == pytest.approx(baseline.ratio_min, abs=1e-8)
        assert degraded.ratio_max == pytest.approx(baseline.ratio_max, abs=1e-8)
        assert degraded.num_pairs_used == baseline.num_pairs_used

    def test_degradation_is_deterministic(self, graph_and_sparsifier, monkeypatch):
        original, sparsifier = graph_and_sparsifier
        real = solver_select.chain_preconditioner_for

        def poisoned(graph, stats=None, seed=0):
            precond, work = real(graph, stats=stats, seed=seed)
            return nan_poisoned_preconditioner(precond, work, healthy_applications=0)

        monkeypatch.setattr(solver_select, "chain_preconditioner_for", poisoned)
        certs = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="degraded"):
                certs.append(
                    certify_resistances(
                        original, sparsifier, num_pairs=8, seed=3, solver="chain", method="solve"
                    )
                )
        assert certs[0].ratio_min == certs[1].ratio_min
        assert certs[0].ratio_max == certs[1].ratio_max

    def test_build_failure_degrades_to_cg(self, graph_and_sparsifier, monkeypatch):
        original, sparsifier = graph_and_sparsifier

        def broken_build(graph, stats=None, seed=0):
            raise RuntimeError("injected chain build failure")

        monkeypatch.setattr(solver_select, "chain_preconditioner_for", broken_build)
        with monkeypatch.context() as plain_cg:
            # No dense factor either: the baseline is plain CG.
            plain_cg.setattr(solver_select, "DENSE_FALLBACK_LIMIT", 0)
            baseline = certify_resistances(
                original, sparsifier, num_pairs=8, seed=3, solver="cg", method="solve"
            )
        stats = ResistanceSolveStats(solver="chain")
        with pytest.warns(UserWarning, match="build failed"):
            degraded = certify_resistances(
                original, sparsifier, num_pairs=8, seed=3, solver="chain", method="solve", stats=stats,
            )
        assert stats.fallbacks
        assert all(event.to_solver == "cg" for event in stats.fallbacks)
        # With the build failing up front the run IS the plain-CG run.
        assert degraded.ratio_min == baseline.ratio_min
        assert degraded.ratio_max == baseline.ratio_max


class TestChainCacheUnderStorm:
    """Satellite: the chain cache survives concurrent get/build/clear."""

    def test_eviction_storm_raises_nothing(self):
        cache = ChainCache(max_entries=2)
        graphs = [
            generators.erdos_renyi_graph(24, 0.3, seed=i, ensure_connected=True)
            for i in range(3)
        ]
        errors = cache_eviction_storm(cache, graphs, num_threads=4, rounds=8)
        assert errors == []
        assert len(cache) <= 2
        assert cache.builds >= 1
        assert cache.hits >= 0

    def test_storm_preserves_chain_correctness(self):
        cache = ChainCache(max_entries=2)
        graph = generators.erdos_renyi_graph(24, 0.3, seed=5, ensure_connected=True)
        reference = cache.chain_for(graph, seed=0)
        errors = cache_eviction_storm(cache, [graph], num_threads=4, rounds=6)
        assert errors == []
        # Rebuilt chains are deterministic: same fingerprint, same levels.
        rebuilt = cache.chain_for(graph, seed=0)
        assert len(rebuilt.levels) == len(reference.levels)
