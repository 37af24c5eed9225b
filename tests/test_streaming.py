"""The streaming sparsifier: ingest, compaction, snapshots, journal, certify.

The contract under test (see ``repro/streaming/sparsifier.py``):

* **Batch parity** — a one-compaction stream reproduces the batch
  ``parallel_sample`` / ``t_bundle_spanner`` construction bit for bit
  (pinned against the same frozen goldens as the batch spanner path).
* **Split invariance** — in the default mode the snapshot after a given
  edge sequence does not depend on how the sequence was chopped into
  ``ingest`` calls.
* **Crash recovery** — streams built with ``store=`` recover bit-exactly,
  losing at most the one batch whose journal append was torn.
* **Retry neutrality** — compactions rebuild their RNG per attempt, so a
  crashed-and-retried stream equals a never-crashed one bit for bit.
"""

from __future__ import annotations

import base64
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.exceptions import (
    CheckpointError,
    FaultInjectionError,
    GraphError,
    SparsificationError,
    StreamingError,
)
from repro.graphs import generators as gen
from repro.parallel.failure import FailurePolicy
from repro.streaming import StreamingSparsifier, StreamJournal, compaction_rng
from repro.streaming import sparsifier as sparsifier_module
from repro.testing.faults import FaultPlan
from repro.utils.rng import as_rng

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

RETRY = FailurePolicy(on_error="retry", max_attempts=3)

# One spanner per bundle with k=2: small enough that the test graph is
# genuinely sampled rather than absorbed by the bundle.
SMALL_BUNDLE = SparsifierConfig(bundle_t=1, spanner_k=2)


@pytest.fixture(scope="module")
def stream_graph():
    """Dense enough that small bundles leave real sampling work."""
    return gen.erdos_renyi_graph(150, 0.3, seed=9, weight_range=(0.5, 2.0))


def edge_batches(graph, batch_size):
    edges = np.column_stack([graph.edge_u, graph.edge_v])
    for lo in range(0, graph.num_edges, batch_size):
        yield edges[lo : lo + batch_size], graph.edge_weights[lo : lo + batch_size]


def run_stream(graph, batch_size, **kwargs):
    stream = StreamingSparsifier(graph.num_vertices, **kwargs)
    for edges, weights in edge_batches(graph, batch_size):
        stream.ingest(edges, weights)
    return stream


# Every stream size and the error class its check raises.
SIZE_ERRORS = {
    "window": StreamingError,
    "compaction_interval": StreamingError,
    "snapshot_every": StreamingError,
    "segment_bytes": CheckpointError,
    "keep_snapshots": CheckpointError,
}


class TestIngestValidation:
    def test_rejects_malformed_batches(self):
        stream = StreamingSparsifier(10, seed=0)
        with pytest.raises(GraphError, match=r"\(m, 2\)"):
            stream.ingest(np.zeros((3, 4)))
        with pytest.raises(GraphError, match="integers"):
            stream.ingest(np.array([[0.5, 1.0]]))
        with pytest.raises(GraphError, match="self-loops"):
            stream.ingest(np.array([[2, 2]]))
        with pytest.raises(GraphError, match=r"\[0, 10\)"):
            stream.ingest(np.array([[0, 10]]))
        with pytest.raises(GraphError, match="finite and positive"):
            stream.ingest(np.array([[0, 1]]), np.array([-1.0]))
        with pytest.raises(GraphError, match="twice|both"):
            stream.ingest(np.array([[0.0, 1.0, 2.0]]), np.array([1.0]))
        assert stream.batches_ingested == 0

    @pytest.mark.parametrize(
        "edges, line",
        [
            (np.array([[True, False]]), '{"edges": [[true, false]]}'),
            ([[True, 2]], '{"edges": [[true, 2]]}'),
        ],
        ids=["all-bool", "mixed"],
    )
    def test_boolean_endpoints_refused(self, edges, line, tmp_path, cli_error):
        from repro.cli import main

        # Stored as edge 0-1 (or 1-2: np.asarray([True, 2]) is int64)
        # otherwise, from an array, a list or a JSON-lines batch.
        stream = StreamingSparsifier(5, seed=0)
        with pytest.raises(GraphError, match="not booleans"):
            stream.ingest(edges)
        assert stream.batches_ingested == 0
        batches = tmp_path / "batches.jsonl"
        batches.write_text(line + "\n", encoding="utf-8")
        assert main(["stream", str(batches), str(tmp_path / "out.txt"), "--n", "5"]) == 2
        assert re.search("not booleans", cli_error())

    def test_inline_weights_and_orientation(self):
        stream = StreamingSparsifier(5, seed=0, compaction_interval=10**6)
        stream.ingest(np.array([[3.0, 1.0, 2.5], [4.0, 0.0, 1.5]]))
        snap = stream.snapshot()
        assert np.array_equal(snap.graph.edge_u, [1, 0])  # min endpoint first
        assert np.array_equal(snap.graph.edge_v, [3, 4])
        assert np.array_equal(snap.graph.edge_weights, [2.5, 1.5])

    def test_empty_batch_advances_batch_index(self):
        stream = StreamingSparsifier(5, seed=0)
        record = stream.ingest(np.empty((0, 2), dtype=np.int64))
        assert record.batch_index == 0 and record.edges == 0
        assert stream.batches_ingested == 1
        record = stream.ingest([])
        assert record.batch_index == 1

    def test_misconfiguration_rejected(self):
        with pytest.raises(StreamingError, match="window"):
            StreamingSparsifier(5, window=0)
        with pytest.raises(StreamingError, match="compaction_interval"):
            StreamingSparsifier(5, compaction_interval=0)
        with pytest.raises(StreamingError, match="sampling probability"):
            StreamingSparsifier(5, config=SparsifierConfig(sampling_probability=1.0))
        with pytest.raises(StreamingError, match="cannot skip"):
            StreamingSparsifier(
                5, failure_policy=FailurePolicy(on_error="collect", max_attempts=2)
            )
        with pytest.raises(StreamingError, match="use_tree_bundle"):
            StreamingSparsifier(5, config=SparsifierConfig(use_tree_bundle=True))

    @pytest.mark.parametrize("k", [0, -3])
    def test_spanner_k_below_one_rejected(self, k):
        # The stream's k is the config's spanner_k, and the config refuses it.
        with pytest.raises(SparsificationError, match="spanner_k must be >= 1"):
            StreamingSparsifier(5, config=SparsifierConfig(spanner_k=k))

    @pytest.mark.parametrize(
        "value", [2.5, True, np.float64(7.9)], ids=["float", "bool", "numpy-float"]
    )
    def test_non_integer_vertex_count_refused(self, value):
        # Truncating would build a 2-, 1- or 7-vertex stream.
        with pytest.raises(GraphError, match="num_vertices must be an integer"):
            StreamingSparsifier(value)

    def test_vertex_count_accepts_zero_and_numpy_integers(self):
        assert StreamingSparsifier(0).snapshot().graph.num_vertices == 0
        assert StreamingSparsifier(np.int64(7)).snapshot().graph.num_vertices == 7
        with pytest.raises(GraphError, match="num_vertices must be >= 0"):
            StreamingSparsifier(-1)

    @pytest.mark.parametrize("seed", [2.7, True, "3", -1], ids=["float", "bool", "str", "negative"])
    def test_bad_seed_refused_before_the_store_exists(self, seed, tmp_path):
        # Truncating would run seed=2.7 as 2, True as 1 and "3" as 3; a
        # journaled -1 would fail the first compaction and every recovery.
        with pytest.raises(StreamingError, match="seed must be"):
            StreamingSparsifier(5, seed=seed, store=tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_seed_accepts_numpy_integers_and_generators(self):
        assert StreamingSparsifier(5, seed=np.int64(3)).seed == 3
        assert StreamingSparsifier(5, seed=np.random.default_rng(1)).seed >= 0

    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("name", SIZE_ERRORS)
    def test_non_integer_size_refused_before_the_store_exists(self, name, value, tmp_path):
        # Truncating would run compaction_interval=2.5 as 2, window=True as 1.
        with pytest.raises(SIZE_ERRORS[name], match=f"{name} must be an integer"):
            StreamingSparsifier(5, store=tmp_path / "store", **{name: value})
        assert not (tmp_path / "store").exists()

    def test_numpy_integer_sizes_accepted(self, tmp_path):
        sizes = {name: np.int64(3) for name in SIZE_ERRORS}
        stream = StreamingSparsifier(5, store=tmp_path / "store", **sizes)
        stream.ingest(np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        recovered, report = StreamingSparsifier.recover(
            tmp_path / "store", snapshot_every=np.int64(3), segment_bytes=np.int64(3),
            keep_snapshots=np.int64(3),
        )
        assert report.bit_exact and recovered.compactions == stream.compactions == 1
        assert recovered._journal_params() == stream._journal_params()

    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("name", ["snapshot_every", "segment_bytes", "keep_snapshots"])
    def test_non_integer_recover_option_refused(self, name, value, tmp_path):
        store = tmp_path / "store"
        StreamingSparsifier(5, store=store).ingest(np.array([[0, 1]]))
        with pytest.raises(CheckpointError, match=f"{name} must be an integer"):
            StreamingSparsifier.recover(store, **{name: value})


class TestBatchParity:
    """The streaming path vs. the batch path, bit for bit."""

    def test_one_compaction_stream_equals_parallel_sample(self, stream_graph):
        config = SparsifierConfig()
        batch = parallel_sample(stream_graph, config=config, seed=42)
        stream = run_stream(
            stream_graph,
            batch_size=stream_graph.num_edges,
            config=config,
            seed=42,
            compaction_interval=stream_graph.num_edges,
        )
        snap = stream.snapshot()
        assert np.array_equal(snap.graph.edge_u, batch.sparsifier.edge_u)
        assert np.array_equal(snap.graph.edge_v, batch.sparsifier.edge_v)
        assert np.array_equal(snap.graph.edge_weights, batch.sparsifier.edge_weights)

    def test_compaction_zero_rng_is_the_batch_stream(self):
        rng = compaction_rng(1234, 0)
        assert np.array_equal(rng.integers(0, 2**31, 8), as_rng(1234).integers(0, 2**31, 8))
        # Later compactions draw from independent streams.
        assert not np.array_equal(
            compaction_rng(1234, 1).integers(0, 2**31, 8),
            compaction_rng(1234, 2).integers(0, 2**31, 8),
        )

    def test_first_compaction_bundle_matches_frozen_goldens(self):
        """The stream's bundle selection is pinned by the same goldens as
        the batch spanner: one whole-graph ingest must select the exact
        frozen edge set, for every golden case."""
        spec = importlib.util.spec_from_file_location(
            "spanner_golden_generator", GOLDEN_DIR / "generate_goldens.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        goldens = json.loads((GOLDEN_DIR / "spanner_goldens.json").read_text())
        for name, graph, seed, k, t in module.cases():
            stream = StreamingSparsifier(
                graph.num_vertices,
                config=SparsifierConfig(bundle_t=t, spanner_k=k),
                seed=seed,
                compaction_interval=graph.num_edges,
            )
            stream.ingest(
                np.column_stack([graph.edge_u, graph.edge_v]), graph.edge_weights
            )
            expected = np.array(goldens[name]["bundle_edge_indices"], dtype=np.int64)
            assert np.array_equal(stream.records[0].bundle_indices, expected), name


class TestSplitInvariance:
    """Snapshots are a pure function of (edge sequence, seed, interval)."""

    def test_snapshot_invariant_to_batch_split(self, stream_graph):
        reference = run_stream(
            stream_graph, batch_size=stream_graph.num_edges, seed=7,
            compaction_interval=500,
        ).snapshot()
        rng = np.random.default_rng(0)
        for _ in range(5):
            # Random split of the same edge sequence into 1..12 batches.
            cuts = np.sort(
                rng.choice(stream_graph.num_edges, size=rng.integers(1, 12), replace=False)
            )
            bounds = [0, *cuts.tolist(), stream_graph.num_edges]
            stream = StreamingSparsifier(
                stream_graph.num_vertices, seed=7, compaction_interval=500
            )
            edges = np.column_stack([stream_graph.edge_u, stream_graph.edge_v])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                stream.ingest(edges[lo:hi], stream_graph.edge_weights[lo:hi])
            snap = stream.snapshot()
            assert np.array_equal(snap.graph.edge_u, reference.graph.edge_u)
            assert np.array_equal(snap.graph.edge_v, reference.graph.edge_v)
            assert np.array_equal(snap.graph.edge_weights, reference.graph.edge_weights)

    def test_snapshot_is_pure_and_repeatable(self, stream_graph):
        stream = run_stream(stream_graph, batch_size=400, seed=3, compaction_interval=600)
        first = stream.snapshot()
        second = stream.snapshot()
        assert np.array_equal(first.graph.edge_weights, second.graph.edge_weights)
        assert first.stats == second.stats


class TestEndToEnd:
    def test_multi_batch_stream_certifies(self, stream_graph):
        """>= 3 batches, real sampling, and the snapshot passes the
        ApproximationReport quality gates against the exact live graph."""
        stream = run_stream(
            stream_graph, batch_size=300, config=SMALL_BUNDLE, seed=11, compaction_interval=400
        )
        assert stream.batches_ingested >= 3
        assert stream.compactions >= 3
        snap = stream.snapshot()
        assert 0 < snap.num_edges < stream_graph.num_edges
        # Retained state stays bounded: bundle + one block, not the stream.
        assert stream.retained_edges < stream_graph.num_edges
        certificate = stream.certify(num_pairs=12, num_vectors=24, seed=2)
        assert certificate.report.connectivity_preserved
        assert certificate.holds(0.8)
        assert certificate.batches_ingested == stream.batches_ingested
        assert certificate.reference_edges == stream_graph.num_edges
        assert certificate.stats.solver == "cg"

    def test_certify_measures_resistances_once(self, stream_graph, monkeypatch):
        """The report's resistance fields come from the one certificate."""
        import repro.analysis.spectral as spectral
        import repro.streaming.sparsifier as sparsifier

        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(kwargs.get("solver"))
                return original(*args, **kwargs)

            return wrapper

        for module in (spectral, sparsifier):
            monkeypatch.setattr(
                module, "certify_resistances", counting(module.certify_resistances)
            )
        stream = run_stream(stream_graph, batch_size=500, seed=4, compaction_interval=700)
        certificate = stream.certify(num_pairs=12, num_vectors=8, seed=2, solver="chain")
        assert calls == ["chain"]
        report, rc = certificate.report, certificate.resistances
        assert report.resistance_ratio_min == rc.ratio_min
        assert report.resistance_ratio_max == rc.ratio_max
        assert report.num_resistance_pairs_used == rc.num_pairs_used == 12

    def test_unified_result_wiring(self, stream_graph):
        stream = run_stream(stream_graph, batch_size=500, seed=1, compaction_interval=700)
        snap = stream.snapshot()
        unified = snap.unified
        assert unified.method == "streaming"
        assert unified.input_edges == stream_graph.num_edges
        assert unified.output_edges == snap.num_edges
        assert unified.native is snap.stats
        assert unified.native.batches_ingested == stream.batches_ingested
        repr(unified)  # lightweight native: no recursive repr


class TestJournalResume:
    """``store=`` + ``recover()``: the one way to persist and restore a stream."""

    def test_resume_is_bit_exact_and_reattaches(self, stream_graph, tmp_path):
        store = tmp_path / "store"
        stream = run_stream(
            stream_graph, batch_size=400, seed=9, compaction_interval=500, store=store,
        )
        resumed, report = StreamingSparsifier.recover(store)
        assert report.bit_exact and report.batches_replayed == stream.batches_ingested
        assert resumed.batches_ingested == stream.batches_ingested
        assert resumed.compactions == stream.compactions
        a, b = stream.snapshot(), resumed.snapshot()
        assert np.array_equal(a.graph.edge_u, b.graph.edge_u)
        assert np.array_equal(a.graph.edge_v, b.graph.edge_v)
        assert np.array_equal(a.graph.edge_weights, b.graph.edge_weights)
        # The journal is reattached: new batches keep appending.
        resumed.ingest(np.array([[0, 1]]), np.array([1.0]))
        again, _ = StreamingSparsifier.recover(store)
        assert again.batches_ingested == resumed.batches_ingested

    def test_torn_trailing_append_loses_at_most_one_batch(self, stream_graph, tmp_path):
        store = tmp_path / "store"
        run_stream(
            stream_graph, batch_size=400, seed=9, compaction_interval=500, store=store,
        )
        active = sorted((store / "journal").glob("segment-*.jsonl"))[-1]
        with open(active, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "batch", "index": 99, "u": [1')  # crash mid-append
        resumed, report = StreamingSparsifier.recover(store)
        assert report.bit_exact and report.torn_tail_dropped
        reference = run_stream(
            stream_graph, batch_size=400, seed=9, compaction_interval=500
        )
        assert resumed.batches_ingested == reference.batches_ingested
        assert np.array_equal(
            resumed.snapshot().graph.edge_weights,
            reference.snapshot().graph.edge_weights,
        )

    def test_corruption_and_misuse_are_refused(self, stream_graph, tmp_path):
        store = tmp_path / "store"
        original = run_stream(
            stream_graph, batch_size=700, seed=9, compaction_interval=500, store=store,
        )
        # A fresh stream must not silently append to an existing store.
        with pytest.raises(CheckpointError, match="recover"):
            StreamingSparsifier(stream_graph.num_vertices, store=store)
        # Mid-segment corruption is not a torn append: recovery names it
        # and declares the loss instead of replaying.
        active = sorted((store / "journal").glob("segment-*.jsonl"))[-1]
        lines = active.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:20]
        active.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resumed, report = StreamingSparsifier.recover(store)
        assert any("corrupt" in note for note in report.notes)
        # Every batch is lost (the compaction records between them are not batches).
        assert not report.bit_exact and report.batches_lost == original.batches_ingested
        assert resumed.batches_ingested == 0

    def test_digest_mismatch_refused(self, tmp_path):
        store = tmp_path / "store"
        stream = StreamingSparsifier(6, seed=0, store=store)
        stream.ingest(np.array([[0, 1], [2, 3]]))
        active = sorted((store / "journal").glob("segment-*.jsonl"))[-1]
        lines = active.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        # Tamper with the edges (binary payload of [2.0, 2.0]), keep the digest.
        record["w"] = base64.b64encode(np.array([2.0, 2.0], dtype="<f8").tobytes()).decode()
        lines[1] = json.dumps(record)
        active.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resumed, report = StreamingSparsifier.recover(store)
        assert not report.bit_exact and report.batches_lost == 1
        assert any("digest" in note for note in report.notes)
        assert resumed.batches_ingested == 0

    def test_out_of_range_pinned_k_is_damage(self, tmp_path):
        # A header pinning k=0, a fractional t or vertex count, or a bool k,
        # written directly: recovery must refuse the parameters, not
        # truncate them or replay into a compaction that raises.
        params = {
            "num_vertices": 6, "t": 1, "k": 2, "sampling_probability": 0.5,
            "seed": 0, "auto_seeded": False, "window": None, "decay": None,
            "compaction_interval": 2, "kout_presample": None, "levels": 1,
            "level_capacity": 4,
        }
        for name, value in (("k", 0), ("t", 2.5), ("k", True), ("num_vertices", 6.5)):
            store = tmp_path / f"store-{name}-{value}"
            journal = StreamJournal(store / "journal", {**params, name: value})
            journal.append_batch(
                0, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 1.0])
            )
            with pytest.raises(CheckpointError, match="pinned stream parameters"):
                StreamingSparsifier.recover(store)

    def test_recovered_stream_keeps_its_snapshot_cadence(self, tmp_path):
        graph = gen.erdos_renyi_graph(80, 0.3, seed=2, weight_range=(0.5, 2.0))
        batches = list(edge_batches(graph, -(-graph.num_edges // 12)))
        assert len(batches) == 12
        store = tmp_path / "store"

        def snapshots():
            return sorted(p.stem for p in (store / "snapshots").glob("snap-*.json"))

        stream = StreamingSparsifier(
            graph.num_vertices, seed=3, compaction_interval=200, store=store, snapshot_every=2
        )
        for edges, weights in batches[:5]:
            stream.ingest(edges, weights)
        assert snapshots() == ["snap-00000002", "snap-00000004"]
        # No cadence passed: the one the journal header records applies.
        recovered, report = StreamingSparsifier.recover(store)
        assert report.bit_exact
        for edges, weights in batches[5:]:
            recovered.ingest(edges, weights)
        assert snapshots() == ["snap-00000010", "snap-00000012"]
        # An explicit cadence wins, and the next recovery restores it.
        recovered, _ = StreamingSparsifier.recover(store, snapshot_every=5)
        for edges, weights in list(edge_batches(graph, 50))[:5]:
            recovered.ingest(edges, weights)
        assert snapshots() == ["snap-00000012", "snap-00000017"]
        recovered, report = StreamingSparsifier.recover(store)
        assert report.bit_exact and recovered._snapshot_every == 5

    def test_missing_or_headerless_journal_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to recover"):
            StreamingSparsifier.recover(tmp_path / "absent")
        journal = tmp_path / "bogus" / "journal"
        journal.mkdir(parents=True)
        (journal / "segment-00000000.jsonl").write_text(
            '{"kind": "batch", "index": 0}\n', encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="nothing to recover"):
            StreamingSparsifier.recover(tmp_path / "bogus")
        # The headerless segment was quarantined on the way, not deleted.
        assert [path.name for path in journal.iterdir()] == [
            "segment-00000000.jsonl.quarantined"
        ]


class TestWindowAndDecay:
    def test_window_evicts_old_batches_everywhere(self, stream_graph):
        stream = StreamingSparsifier(
            stream_graph.num_vertices, seed=1, window=2, compaction_interval=10**6
        )
        edges = np.column_stack([stream_graph.edge_u, stream_graph.edge_v])
        for lo in range(0, 900, 300):
            stream.ingest(edges[lo : lo + 300], stream_graph.edge_weights[lo : lo + 300])
        assert stream.live_input_edges == 600
        snap = stream.snapshot()
        assert snap.num_edges == 600  # nothing compacted: live edges verbatim
        assert np.array_equal(snap.graph.edge_weights, stream_graph.edge_weights[300:900])
        # The certification reference is windowed identically.
        assert stream.reference_graph().num_edges == 600

    def test_window_evicts_retained_state_after_compaction(self, stream_graph):
        stream = StreamingSparsifier(
            stream_graph.num_vertices, seed=1, window=1, compaction_interval=250
        )
        edges = np.column_stack([stream_graph.edge_u, stream_graph.edge_v])
        for lo in range(0, 900, 300):
            stream.ingest(edges[lo : lo + 300], stream_graph.edge_weights[lo : lo + 300])
        # Only the latest batch is live; every retained/pending edge must
        # come from it (weights are a subset of the batch's, up to boosts).
        assert stream.live_input_edges == 300
        snap = stream.snapshot()
        assert snap.num_edges <= 300


class TestResilience:
    """Fault-injected compactions under a FailurePolicy (PR 7 machinery)."""

    def run_fault_stream(self, graph, monkeypatch, policy, plan):
        monkeypatch.setattr(
            sparsifier_module,
            "_compaction_worker",
            plan.wrap(sparsifier_module._compaction_worker),
        )
        return run_stream(
            graph, batch_size=300, config=SMALL_BUNDLE, seed=5, compaction_interval=400,
            failure_policy=policy,
        )

    def test_retry_is_output_neutral(self, stream_graph, monkeypatch):
        clean = run_stream(
            stream_graph, batch_size=300, config=SMALL_BUNDLE, seed=5, compaction_interval=400
        ).snapshot()
        faulted = self.run_fault_stream(
            stream_graph, monkeypatch, RETRY,
            FaultPlan(crash_index=0, crash_attempts=1),
        ).snapshot()
        assert np.array_equal(clean.graph.edge_u, faulted.graph.edge_u)
        assert np.array_equal(clean.graph.edge_v, faulted.graph.edge_v)
        assert np.array_equal(clean.graph.edge_weights, faulted.graph.edge_weights)

    def test_unprotected_fault_raises(self, stream_graph, monkeypatch):
        with pytest.raises(FaultInjectionError):
            self.run_fault_stream(
                stream_graph, monkeypatch, None,
                FaultPlan(crash_index=0, crash_attempts=1),
            )

    def test_permanent_fault_exhausts_retries(self, stream_graph, monkeypatch):
        with pytest.raises(FaultInjectionError):
            self.run_fault_stream(
                stream_graph, monkeypatch, RETRY,
                FaultPlan(crash_index=0, crash_attempts=99),
            )


class TestRegistryMethod:
    def test_registered_and_runs(self, stream_graph):
        assert "streaming" in repro.available_methods()
        result = repro.sparsify(
            stream_graph, method="streaming", seed=11, num_batches=3,
            config=SMALL_BUNDLE, compaction_interval=400,
        )
        assert result.method == "streaming"
        assert 0 < result.output_edges < result.input_edges
        assert result.num_rounds == 3

    def test_single_batch_method_matches_parallel_sample(self, stream_graph):
        config = SparsifierConfig()
        batch = parallel_sample(stream_graph, config=config, seed=5)
        result = repro.sparsify(
            stream_graph, method="stream", seed=5, num_batches=1,
            compaction_interval=stream_graph.num_edges,
        )
        assert np.array_equal(
            result.sparsifier.edge_weights, batch.sparsifier.edge_weights
        )

    def test_unknown_option_rejected(self, stream_graph):
        with pytest.raises(StreamingError, match="unknown streaming option"):
            repro.sparsify(stream_graph, method="streaming", seed=1, bogus=3)

    @pytest.mark.parametrize("option", ["t", "k"])
    def test_bundle_options_point_at_the_config(self, stream_graph, option):
        with pytest.raises(StreamingError, match="SparsifierConfig.bundle_t or spanner_k"):
            repro.sparsify(stream_graph, method="streaming", seed=1, **{option: 2})

    def test_participates_in_compare(self, stream_graph):
        results = repro.compare_methods(
            stream_graph, ["koutis", "streaming"], seed=3
        )
        assert {result.method for result in results} == {"koutis", "streaming"}


class TestStreamCLI:
    def write_batches(self, graph, path, batch_size, lo=0, hi=None):
        batches = list(edge_batches(graph, batch_size))[lo:hi]
        with open(path, "w", encoding="utf-8") as handle:
            for edges, weights in batches:
                handle.write(
                    json.dumps({"edges": edges.tolist(), "weights": weights.tolist()})
                    + "\n"
                )

    def test_stream_subcommand_end_to_end(self, stream_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import read_edge_list

        batches = tmp_path / "batches.jsonl"
        output = tmp_path / "snapshot.txt"
        store = tmp_path / "store"
        self.write_batches(stream_graph, batches, 400)
        code = main([
            "stream", str(batches), str(output),
            "--n", str(stream_graph.num_vertices),
            "--seed", "3", "--compaction-interval", "500",
            "--store", str(store), "--snapshot-every", "3",
            "--certify-resistances", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resistance certificate" in out
        assert list((store / "snapshots").glob("snap-*.json"))
        written = read_edge_list(output)

        resumed_output = tmp_path / "resumed.txt"
        code = main(["stream", str(resumed_output), "--resume", "--store", str(store)])
        assert code == 0
        assert "bit-exact" in capsys.readouterr().out
        resumed = read_edge_list(resumed_output)
        assert np.array_equal(written.edge_weights, resumed.edge_weights)

    def test_resume_continuation_equals_one_shot_run(self, stream_graph, tmp_path):
        from repro.cli import main

        flags = ["--seed", "3", "--compaction-interval", "500"]
        both, first, second = (tmp_path / f"{name}.jsonl" for name in ("both", "first", "second"))
        self.write_batches(stream_graph, both, 400)
        self.write_batches(stream_graph, first, 400, hi=4)
        self.write_batches(stream_graph, second, 400, lo=4)
        n = ["--n", str(stream_graph.num_vertices)]
        assert main(["stream", str(both), str(tmp_path / "one-shot.txt"), *n, *flags]) == 0
        store = ["--store", str(tmp_path / "store"), "--snapshot-every", "2"]
        assert main(["stream", str(first), str(tmp_path / "part.txt"), *n, *flags, *store]) == 0
        assert main(["stream", str(second), str(tmp_path / "continued.txt"), *store, "--resume"]) == 0
        one_shot = (tmp_path / "one-shot.txt").read_bytes()
        assert (tmp_path / "continued.txt").read_bytes() == one_shot
        assert (tmp_path / "part.txt").read_bytes() != one_shot

    def test_fresh_stream_flags_build_one_config(self, stream_graph, tmp_path):
        from repro.cli import main
        from repro.graphs.io import write_edge_list

        batches = tmp_path / "batches.jsonl"
        self.write_batches(stream_graph, batches, 400)
        command = [
            "stream", str(batches), str(tmp_path / "cli.txt"), "--n", str(stream_graph.num_vertices),
            "--seed", "3", "--compaction-interval", "500",
        ]
        assert main([*command, "--epsilon", "0.25", "--bundle-t", "1", "--k", "2"]) == 0
        config = SparsifierConfig(epsilon=0.25, bundle_t=1, spanner_k=2)
        stream = run_stream(stream_graph, 400, config=config, seed=3, compaction_interval=500)
        write_edge_list(stream.snapshot().graph, tmp_path / "library.txt")
        written = (tmp_path / "cli.txt").read_bytes()
        assert written == (tmp_path / "library.txt").read_bytes()
        # The flags matter: the default settings keep another edge set.
        assert main(command) == 0
        assert (tmp_path / "cli.txt").read_bytes() != written

    def test_recover_subcommand_exit_codes(self, stream_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.testing.faults import flip_bit

        store = tmp_path / "store"
        run_stream(stream_graph, batch_size=700, seed=9, compaction_interval=500, store=store)
        recovered = tmp_path / "recovered.txt"
        assert main(["recover", str(store), "--output", str(recovered)]) == 0
        assert "bit-exact" in capsys.readouterr().out and recovered.exists()
        # A bit-7 flip inside a mid-journal batch record: recovered, but lossy.
        segment = sorted((store / "journal").glob("segment-*.jsonl"))[0]
        data = segment.read_bytes()
        middle_record = data.index(b"\n", data.index(b"\n") + 1) + 10
        flip_bit(segment, middle_record, bit=7)
        assert main(["recover", str(store)]) == 1
        assert "LOSSY" in capsys.readouterr().out

    def test_stream_subcommand_validation(self, tmp_path, cli_error):
        from repro.cli import main

        batches = tmp_path / "bad.jsonl"
        batches.write_text('{"no_edges": []}\n', encoding="utf-8")
        assert main(["stream", str(batches), str(tmp_path / "out.txt")]) == 2
        assert re.search("--n", cli_error())
        assert main(["stream", str(batches), str(tmp_path / "out.txt"), "--n", "5"]) == 2
        assert re.search("edges", cli_error())
        assert main(["stream", str(tmp_path / "out.txt"), "--resume"]) == 2
        assert re.search("--store", cli_error())

    def test_bad_seed_exits_2_before_the_store_exists(self, tmp_path, cli_error):
        from repro.cli import main

        batches = tmp_path / "batches.jsonl"
        batches.write_text('{"edges": [[0, 1]]}\n', encoding="utf-8")
        store = tmp_path / "store"
        command = ["stream", str(batches), str(tmp_path / "out.txt"), "--n", "5"]
        assert main([*command, "--seed", "-1", "--store", str(store)]) == 2
        assert re.search("seed must be", cli_error())
        assert not store.exists() and not (tmp_path / "out.txt").exists()

    def test_resume_refuses_the_flags_the_store_pins(self, stream_graph, tmp_path, capsys, cli_error):
        from repro.cli import main

        batches = tmp_path / "batches.jsonl"
        self.write_batches(stream_graph, batches, 400)
        store = ["--store", str(tmp_path / "store")]
        n = ["--n", str(stream_graph.num_vertices)]
        assert main(["stream", str(batches), str(tmp_path / "out.txt"), *n, *store]) == 0
        resume = ["stream", str(tmp_path / "resumed.txt"), *store, "--resume"]
        pinned = [
            ["--n", "7"], ["--epsilon", "0.25"], ["--bundle-t", "1"], ["--k", "2"],
            ["--window", "1"], ["--compaction-interval", "150"],
        ]
        capsys.readouterr()
        for flag in pinned:
            assert main([*resume, *flag]) == 2
            assert re.search(f"store pins.*{flag[0]}", cli_error())
        assert main([*resume, "--window", "1", "--n", "7", "--compaction-interval", "150"]) == 2
        assert re.search("--n, --window, --compaction-interval", cli_error())
        # The deleted stream flags are unknown to argparse.
        for flag in (["--levels", "3"], ["--kout-presample", "2"], ["--decay", "0.5"]):
            with pytest.raises(SystemExit):
                main([*resume, *flag])
        # The probe seed, the solver and the snapshot cadence still apply.
        assert main([*resume, "--seed", "4", "--solver", "chain", "--snapshot-every", "2"]) == 0
        assert "bit-exact" in capsys.readouterr().out
