"""Resilience-layer tests: failure policies, checkpoints, solver statuses.

Covers the policy vocabulary (`repro.parallel.failure`), the checkpoint
journal behind ``Engine.run_many(checkpoint=...)``, the blocked solver's
per-column :class:`SolveStatus` detection, and the input-validation
hardening (non-finite edge weights / right-hand sides).  The end-to-end
fault-injection scenarios live in ``test_faults.py`` (``-m faults``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Engine, SparsifyRequest
from repro.core.checkpoint import batch_graph_digest
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import distributed_parallel_sample
from repro.exceptions import (
    BackendError,
    CheckpointError,
    ConvergenceError,
    GraphError,
    MethodError,
)
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.linalg.cg import SolveStatus, laplacian_solve_many
from repro.parallel.backends import get_backend
from repro.parallel.failure import BACKOFF_JITTER, BACKOFF_MAX, FailurePolicy, FailureRecord, backoff_delay
from repro.spanners import distributed_spanner
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
        assert outcome.all_succeeded

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
        assert not outcome.all_succeeded
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


def checkpointed_batch(graphs, *, checkpoint, epsilon=0.5, seed=7, method="koutis", **request):
    """A checkpointed ``Engine.run_many`` batch (koutis, epsilon 0.5, seed 7)."""
    engine = Engine(
        SparsifyRequest(method=method, epsilon=epsilon, seed=seed, **request)
    )
    return engine.run_many(graphs, checkpoint=checkpoint)


class TestCheckpointJournal:
    @pytest.fixture()
    def graphs(self):
        return [
            generators.erdos_renyi_graph(30, 0.3, seed=i, ensure_connected=True)
            for i in range(3)
        ]

    def _edges(self, result):
        g = result.sparsifier
        return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())

    def test_resume_skips_completed_jobs_bit_identically(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        first = checkpointed_batch(graphs, checkpoint=journal)
        assert first.resumed_jobs == 0
        second = checkpointed_batch(graphs, checkpoint=journal)
        assert second.resumed_jobs == len(graphs)
        for a, b in zip(first.results, second.results):
            assert self._edges(a) == self._edges(b)

    def test_partial_journal_resumes_prefix(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        full = checkpointed_batch(graphs, checkpoint=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")  # header + job 0
        resumed = checkpointed_batch(graphs, checkpoint=journal)
        assert resumed.resumed_jobs == 1
        for a, b in zip(full.results, resumed.results):
            assert self._edges(a) == self._edges(b)

    def test_torn_trailing_line_is_dropped(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs, checkpoint=journal)
        with open(journal, "a") as handle:
            handle.write('{"kind": "job", "index": 2, "resu')  # crash mid-append
        resumed = checkpointed_batch(graphs, checkpoint=journal)
        assert resumed.resumed_jobs == len(graphs)

    def test_digest_mismatch_refuses_resume(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs, checkpoint=journal)
        different = [
            generators.erdos_renyi_graph(30, 0.3, seed=100 + i, ensure_connected=True)
            for i in range(3)
        ]
        with pytest.raises(CheckpointError, match="digest"):
            checkpointed_batch(different, checkpoint=journal)

    def test_batch_shape_mismatch_refuses_resume(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs, checkpoint=journal)
        with pytest.raises(CheckpointError, match="different"):
            checkpointed_batch(graphs, checkpoint=journal, epsilon=0.25)

    def test_headerless_file_refused(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        journal.write_text('{"kind": "job", "index": 0}\n{"kind": "job", "index": 1}\n')
        with pytest.raises(CheckpointError, match="header"):
            checkpointed_batch(graphs, checkpoint=journal)

    def test_digest_is_content_addressed(self, graphs):
        assert batch_graph_digest(graphs[0]) == batch_graph_digest(graphs[0])
        assert batch_graph_digest(graphs[0]) != batch_graph_digest(graphs[1])

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"config": SparsifierConfig(bundle_t=1)},
            {"epsilon": 0.25},
            {"rho": 8.0},
            {"options": {"coalesce_between_rounds": False}},
            {"config": SparsifierConfig(num_shards=2)},
        ],
        ids=["seed", "config", "epsilon", "rho", "option", "config-shards"],
    )
    def test_resume_under_another_request_is_refused(self, graphs, tmp_path, change):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs[:2], checkpoint=journal)
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1] + "\n")  # header + job 0
        with pytest.raises(CheckpointError, match="different batch"):
            checkpointed_batch(graphs[:2], checkpoint=journal, **change)
        # The refused resume left the journal untouched.
        assert journal.read_text().splitlines() == lines[:2]

    def test_resume_with_another_job_count_is_refused(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs[:2], checkpoint=journal)
        with pytest.raises(CheckpointError, match="num_jobs"):
            checkpointed_batch(graphs, checkpoint=journal)

    @pytest.mark.parametrize(
        "execution",
        [
            {"config": SparsifierConfig(backend="thread", max_workers=3)},
            {"config": SparsifierConfig(backend="process", max_workers=2)},
        ],
        ids=["config-thread", "config-process"],
    )
    def test_backend_and_workers_are_not_pinned(self, graphs, tmp_path, execution):
        journal = tmp_path / "batch.jsonl"
        full = checkpointed_batch(graphs, checkpoint=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")  # header + job 0
        resumed = checkpointed_batch(graphs, checkpoint=journal, **execution)
        assert resumed.resumed_jobs == 1
        again = checkpointed_batch(graphs, checkpoint=journal, **execution)
        assert again.resumed_jobs == len(graphs)
        for a, b, c in zip(full.results, resumed.results, again.results):
            assert self._edges(a) == self._edges(b) == self._edges(c)

    def test_version_one_journal_refused(self, graphs, tmp_path):
        # Versions 1 and 2 wrote unsealed lines.
        journal = tmp_path / "batch.jsonl"
        for version in (1, 2):
            journal.write_text(
                json.dumps({"kind": "header", "version": version, "epsilon": 0.5, "rho": 4.0,
                            "num_jobs": 3}) + "\n"
            )
            with pytest.raises(CheckpointError, match="version"):
                checkpointed_batch(graphs, checkpoint=journal)

    def test_edited_stored_weight_refused(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        full = checkpointed_batch(graphs, checkpoint=journal)
        largest = max(float(r.sparsifier.edge_weights.max()) for r in full.results)
        assert largest < 13.0
        lines = journal.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["result"]["sparsifier"]["edge_weights"][0] == 1.0
        record["result"]["sparsifier"]["edge_weights"][0] = 13.0  # still valid JSON
        lines[1] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="digest"):
            checkpointed_batch(graphs, checkpoint=journal)

    @pytest.mark.parametrize(
        "key", ["edge_weights", "rounds", "cost", "graph_digest", "index", "digest", "kind"]
    )
    def test_flipped_key_name_refused(self, graphs, tmp_path, key):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs, checkpoint=journal)
        lines = journal.read_text().splitlines()
        assert f'"{key}":' in lines[1]
        lines[1] = lines[1].replace(f'"{key}":', f'"{key}X":', 1)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            checkpointed_batch(graphs, checkpoint=journal)

    def test_torn_tail_is_cut_before_the_next_append(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        full = checkpointed_batch(graphs, checkpoint=journal)
        lines = journal.read_text().splitlines()
        # Header, job 0, then half of job 1's append: a crash mid-write.
        journal.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2])
        for resumed_jobs in (1, len(graphs), len(graphs)):
            resumed = checkpointed_batch(graphs, checkpoint=journal)
            assert resumed.resumed_jobs == resumed_jobs
            for a, b in zip(full.results, resumed.results):
                assert self._edges(a) == self._edges(b)
        # Every line of the journal is whole again: no append merged into
        # the torn fragment.
        assert [json.loads(line)["kind"] for line in journal.read_text().splitlines()] == [
            "header", "job", "job", "job",
        ]

    def test_damaged_complete_final_line_refused(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        checkpointed_batch(graphs, checkpoint=journal)
        text = journal.read_text()
        assert text.endswith("}\n")
        # A terminated line that does not decode is damage, not a torn append.
        journal.write_text(text[:-2] + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            checkpointed_batch(graphs, checkpoint=journal)

    def test_checkpoint_needs_the_koutis_method(self, graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        with pytest.raises(MethodError, match="koutis"):
            checkpointed_batch(graphs, checkpoint=journal, method="uniform")
        assert not journal.exists()


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


class TestDistributedPolicyRouting:
    def test_sharded_fanout_rejects_collect(self, small_er_graph):
        config = SparsifierConfig(num_shards=2)
        policy = FailurePolicy(on_error="collect", max_attempts=2)
        with pytest.raises(BackendError, match="collect"):
            distributed_parallel_sample(
                small_er_graph, epsilon=0.5, config=config, seed=3,
                failure_policy=policy,
            )

    def test_sharded_fanout_accepts_retry(self, small_er_graph):
        config = SparsifierConfig(num_shards=2)
        policy = FailurePolicy(on_error="retry", max_attempts=2)
        baseline = distributed_parallel_sample(
            small_er_graph, epsilon=0.5, config=config, seed=3
        )
        with_policy = distributed_parallel_sample(
            small_er_graph, epsilon=0.5, config=config, seed=3,
            failure_policy=policy,
        )
        assert np.array_equal(
            baseline.sparsifier.edge_weights, with_policy.sparsifier.edge_weights
        )

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "execution",
        [{"backend": "serial"}, {"backend": "thread", "max_workers": 2}],
        ids=["serial", "thread"],
    )
    def test_retry_after_failure_part_way_through_a_shard(self, execution, fail_once_part_way):
        # The bundle peel runs each component through ``_run_protocol``. On
        # the serial backend its second call is shard 0's second bundle
        # component: the shard has already drawn from its streams.
        graph = generators.banded_graph(200, 6)
        config = SparsifierConfig(bundle_t=3, num_shards=2, **execution)
        baseline = distributed_parallel_sample(graph, config=config, seed=3)

        fired = fail_once_part_way(distributed_spanner, "_run_protocol")
        policy = FailurePolicy(on_error="retry", max_attempts=3)
        recovered = distributed_parallel_sample(
            graph, config=config, seed=3, failure_policy=policy
        )

        assert fired
        assert np.array_equal(baseline.bundle_edge_indices, recovered.bundle_edge_indices)
        assert np.array_equal(baseline.sampled_edge_indices, recovered.sampled_edge_indices)
        assert baseline.cost == recovered.cost
