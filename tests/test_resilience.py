"""Resilience-layer tests: failure policies, graph digests, solver statuses.

Covers the policy vocabulary (`repro.parallel.failure`), the content
digest that keys the chain cache, the blocked solver's per-column
:class:`SolveStatus` detection, and the input-validation hardening
(non-finite edge weights / right-hand sides).  The end-to-end
fault-injection scenarios live in ``test_faults.py`` (``-m faults``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import batch_graph_digest
from repro.exceptions import BackendError, ConvergenceError, GraphError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.linalg.cg import SolveStatus, laplacian_solve_many
from repro.parallel.backends import get_backend
from repro.parallel.failure import BACKOFF_JITTER, BACKOFF_MAX, FailurePolicy, FailureRecord, backoff_delay
from repro.testing.faults import NaNPoisonedOperator


def _identity(x):
    return x


def _always_boom(x):
    raise ValueError(f"permanent failure on {x}")


def _flaky(x, index=0, attempt=1):
    """Attempt-aware item: fails on attempt 1, succeeds from attempt 2."""
    if attempt == 1:
        raise ValueError(f"transient failure on item {index}")
    return x * 10


_flaky.__repro_attempt_aware__ = True


class TestFailurePolicyValidation:
    def test_default_is_fail_fast(self):
        policy = FailurePolicy()
        assert policy.is_fail_fast

    def test_retry_policy_is_not_fail_fast(self):
        assert not FailurePolicy(on_error="retry", max_attempts=2).is_fail_fast

    def test_unknown_on_error_rejected(self):
        with pytest.raises(BackendError, match="on_error"):
            FailurePolicy(on_error="ignore")

    def test_zero_attempts_rejected(self):
        with pytest.raises(BackendError, match="max_attempts"):
            FailurePolicy(on_error="retry", max_attempts=0)

    def test_raise_cannot_retry(self):
        with pytest.raises(BackendError, match="fail-fast"):
            FailurePolicy(on_error="raise", max_attempts=3)


class TestBackoffDeterminism:
    def test_first_attempt_never_waits(self):
        assert backoff_delay(index=3, attempt=1) == 0.0

    def test_same_inputs_same_delay(self):
        delays = [backoff_delay(index=2, attempt=3) for _ in range(4)]
        assert len(set(delays)) == 1

    def test_exponential_base_capped_with_bounded_jitter(self):
        # Bases 0.05 s, 0.1 s, 0.2 s, ... doubling up to the 5 s cap; the
        # jitter adds at most 10%.
        bases = {2: 0.05, 3: 0.1, 4: 0.2, 8: 3.2, 9: BACKOFF_MAX, 30: BACKOFF_MAX}
        for attempt, base in bases.items():
            delay = backoff_delay(index=0, attempt=attempt)
            assert base <= delay <= base * (1.0 + BACKOFF_JITTER)

    def test_delays_depend_on_the_item_index(self):
        assert backoff_delay(index=1, attempt=2) != backoff_delay(index=2, attempt=2)


class TestMapOutcomes:
    def test_retry_recovers_transient_failures(self):
        backend = get_backend("serial")
        policy = FailurePolicy(on_error="retry", max_attempts=2)
        outcome = backend.map_outcomes(_flaky, [0, 1, 2], policy=policy)
        assert outcome.values == [0, 10, 20]
        assert outcome.attempts == [2, 2, 2]
        assert not outcome.failures

    def test_retry_exhausted_raises_last_error(self):
        backend = get_backend("serial")
        policy = FailurePolicy(on_error="retry", max_attempts=2)
        with pytest.raises(ValueError, match="permanent failure"):
            backend.map_outcomes(_always_boom, [0, 1], policy=policy)

    def test_collect_records_failures_and_continues(self):
        backend = get_backend("serial")
        policy = FailurePolicy(on_error="collect", max_attempts=2)
        outcome = backend.map_outcomes(_always_boom, [7, 8], policy=policy)
        assert outcome.values == [None, None]
        assert outcome.num_failed == 2
        assert outcome.failures
        record = outcome.failures[0]
        assert isinstance(record, FailureRecord)
        assert record.describe() == (0, "ValueError", "permanent failure on 7", 2)
        assert record.elapsed >= 0.0
        assert record.to_dict()["error_type"] == "ValueError"

    def test_collect_mixed_success_and_failure(self):
        backend = get_backend("serial")
        policy = FailurePolicy(on_error="collect", max_attempts=1)
        outcome = backend.map_outcomes(
            lambda x: x * 2 if x != 1 else (_ for _ in ()).throw(RuntimeError("no")),
            [0, 1, 2],
            policy=policy,
        )
        assert outcome.values == [0, None, 4]
        assert [r.index for r in outcome.failures] == [1]

    def test_map_with_policy_returns_values_only(self):
        backend = get_backend("serial")
        policy = FailurePolicy(on_error="collect", max_attempts=1)
        values = backend.map(_identity, [1, 2, 3], policy=policy)
        assert values == [1, 2, 3]


class TestBatchGraphDigest:
    def test_digest_is_content_addressed(self):
        graphs = [
            generators.erdos_renyi_graph(30, 0.3, seed=i, ensure_connected=True)
            for i in range(2)
        ]
        assert batch_graph_digest(graphs[0]) == batch_graph_digest(graphs[0])
        assert batch_graph_digest(graphs[0]) != batch_graph_digest(graphs[1])


class TestSolveStatusDetection:
    @pytest.fixture()
    def laplacian_and_rhs(self, small_er_graph):
        lap = small_er_graph.laplacian()
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((small_er_graph.num_vertices, 4))
        rhs -= rhs.mean(axis=0)  # keep RHS in the Laplacian's range
        return lap, rhs

    def test_converged_status_on_healthy_solve(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        result = laplacian_solve_many(lap, rhs, tol=1e-8)
        assert result.all_converged
        assert np.all(result.status == int(SolveStatus.CONVERGED))
        assert not result.failures

    def test_raise_on_failure_carries_column_failures(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        with pytest.raises(ConvergenceError) as excinfo:
            laplacian_solve_many(
                lap, rhs, tol=1e-30, max_iterations=3, raise_on_failure=True
            )
        failures = excinfo.value.failures
        assert failures
        for failure in failures:
            assert failure.status == SolveStatus.MAX_ITERATIONS
            assert failure.iterations == 3
            assert np.isfinite(failure.residual)
        # The message names the counts and the worst column.
        assert "columns failed" in str(excinfo.value)

    def test_non_finite_rhs_rejected(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        poisoned = rhs.copy()
        poisoned[0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            laplacian_solve_many(lap, poisoned)

    def test_nan_preconditioner_detected_as_not_finite(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        poisoned = NaNPoisonedOperator(lambda block: block, healthy_applications=0)
        result = laplacian_solve_many(lap, rhs, preconditioner=poisoned)
        assert not result.all_converged
        assert np.all(result.status[~result.converged] == int(SolveStatus.NOT_FINITE))

    def test_breakdown_on_non_psd_matrix(self):
        n = 12
        matrix = -np.eye(n)
        rhs = np.ones((n, 2))
        result = laplacian_solve_many(matrix, rhs, deflate=False)
        assert not result.all_converged
        assert np.all(result.status == int(SolveStatus.BREAKDOWN))

    def test_divergence_limit_freezes_columns(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        result = laplacian_solve_many(lap, rhs, tol=1e-12, divergence_limit=1e-6)
        assert not result.all_converged
        assert np.any(result.status == int(SolveStatus.DIVERGED))

    def test_stagnation_detected_on_unreachable_tolerance(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        result = laplacian_solve_many(lap, rhs, tol=1e-30, stagnation_window=5)
        assert not result.all_converged
        assert np.all(result.status[~result.converged] == int(SolveStatus.STAGNATED))
        # Stagnation fires long before the 10n iteration cap.
        assert int(result.iterations.max()) < 10 * lap.shape[0]

    def test_work_budget_exhaustion(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        result = laplacian_solve_many(lap, rhs, tol=1e-12, work_budget=float(lap.nnz))
        assert not result.all_converged
        assert np.any(result.status == int(SolveStatus.BUDGET_EXHAUSTED))

    def test_invalid_work_budget_rejected(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        with pytest.raises(ValueError, match="work_budget"):
            laplacian_solve_many(lap, rhs, work_budget=0.0)

    def test_column_failure_report_via_failures_property(self, laplacian_and_rhs):
        lap, rhs = laplacian_and_rhs
        result = laplacian_solve_many(lap, rhs, tol=1e-30, max_iterations=2)
        failures = result.failures
        assert len(failures) == rhs.shape[1]
        assert {f.column for f in failures} == set(range(rhs.shape[1]))


class TestValidationHardening:
    def test_nan_edge_weight_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            Graph(3, [0, 1], [1, 2], [1.0, float("nan")])

    def test_inf_edge_weight_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            Graph(3, [0, 1], [1, 2], [np.inf, 1.0])

    def test_nonpositive_edge_weight_still_rejected(self):
        with pytest.raises(GraphError, match="positive"):
            Graph(3, [0, 1], [1, 2], [1.0, 0.0])


