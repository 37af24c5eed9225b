"""Crash-consistency torture tests for the durable streaming state store.

The contract under test (``repro/streaming/store.py`` + the harness in
``repro/testing/faults.py``):

* **Kill-point sweep** — for *every* filesystem mutation the store ever
  issues (journal appends, segment rotations, snapshot blob/manifest
  writes, renames, prunes, truncations, directory fsyncs), killing the
  process at exactly that point leaves a store from which ``recover()``
  rebuilds a state bit-identical to a clean run over the surviving batch
  prefix — or reports the loss explicitly.  Zero silent divergence, in
  all three crash modes (clean kill, torn write, bit-flipped write).
* **Torn-write fuzz** — truncating a journal at *every byte offset*
  yields either a bit-exact prefix replay or a clean refusal, for both
  the stream store's journal and the batch checkpoint journal.
* **Media corruption** — a flipped bit mid-journal is never silently
  replayed: strict readers refuse, the recovery ladder quarantines and
  accounts for the loss; a flipped bit in the newest snapshot makes the
  ladder fall back to the previous snapshot (whose journal suffix the
  store deliberately retained).  Every damaged record — a bit-7 flip at
  any byte of a batch record, a flipped key name in a record, a segment
  header or a snapshot manifest, an out-of-range pinned parameter — ends
  bit-exact or declared lossy, never in a crash.
* **Arguments first** — a ``recover()`` call with a bad option is refused
  before it touches a single byte of the store.
* **Bounded resume** — after a snapshot, recovery replays only the
  post-snapshot journal suffix, proven through the scan's read
  accounting, not timing.
* **Leveled retained state** — multi-level compaction is deterministic,
  bounds the per-level sizes it promises, and round-trips through
  snapshot/recover bit-exactly.

Run with ``-m durability`` to select only this file.
"""

from __future__ import annotations

import re
import shutil

import numpy as np
import pytest

from repro.api import Engine, SparsifyRequest
from repro.core.checkpoint import BatchJournal
from repro.exceptions import CheckpointError
from repro.graphs import generators as gen
from repro.streaming import (
    LEVEL_FANOUT,
    StreamingSparsifier,
    StreamJournal,
    StreamStateStore,
)
from repro.testing.faults import (
    CrashPointIO,
    SimulatedCrash,
    flip_bit,
    kill_point_sweep,
    truncate_file_at,
)

pytestmark = pytest.mark.durability


# --------------------------------------------------------------------- #
# Shared fixtures: a small deterministic stream and its clean-run states
# --------------------------------------------------------------------- #

SEED = 5
COMPACTION_INTERVAL = 30
SNAPSHOT_EVERY = 2
SEGMENT_BYTES = 300  # tiny: every couple of appends rotates a segment


@pytest.fixture(scope="module")
def torture_graph():
    return gen.erdos_renyi_graph(40, 0.2, seed=3, weight_range=(0.5, 2.0))


@pytest.fixture(scope="module")
def torture_batches(torture_graph):
    edges = np.column_stack([torture_graph.edge_u, torture_graph.edge_v])
    weights = torture_graph.edge_weights
    bounds = np.linspace(0, torture_graph.num_edges, 7).astype(int)
    return [
        (edges[lo:hi], weights[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def state_fingerprint(stream):
    """Deterministic bit-exact state identity (wall-clock telemetry excluded)."""
    counters, arrays = stream._state_payload()
    counters = {k: v for k, v in counters.items() if k != "ingest_seconds"}
    return counters, {name: np.array(array) for name, array in arrays.items()}


def assert_same_state(actual, expected):
    assert actual[0] == expected[0]
    assert sorted(actual[1]) == sorted(expected[1])
    for name, array in expected[1].items():
        assert np.array_equal(actual[1][name], array), name


@pytest.fixture(scope="module")
def clean_references(torture_batches, torture_graph):
    """Fingerprint of a clean (storeless) run after each batch count."""
    stream = StreamingSparsifier(
        torture_graph.num_vertices, seed=SEED, compaction_interval=COMPACTION_INTERVAL
    )
    refs = {0: state_fingerprint(stream)}
    for edges, weights in torture_batches:
        stream.ingest(edges, weights)
        refs[stream.batches_ingested] = state_fingerprint(stream)
    return refs


# --------------------------------------------------------------------- #
# The tentpole guarantee: the kill-point sweep
# --------------------------------------------------------------------- #


class TestKillPointSweep:
    @pytest.mark.parametrize("mode", ["clean", "torn", "flip"])
    def test_every_crash_point_recovers_without_silent_divergence(
        self, mode, torture_graph, torture_batches, clean_references, tmp_path
    ):
        stores = iter(range(10**6))

        current = {}

        def workload(io: CrashPointIO):
            path = tmp_path / f"store-{mode}-{next(stores)}"
            current["path"] = path
            stream = StreamingSparsifier(
                torture_graph.num_vertices,
                seed=SEED,
                compaction_interval=COMPACTION_INTERVAL,
                store=path,
                snapshot_every=SNAPSHOT_EVERY,
                segment_bytes=SEGMENT_BYTES,
                io=io,
            )
            for edges, weights in torture_batches:
                stream.ingest(edges, weights)

        def verify(point: int) -> None:
            try:
                stream, report = StreamStateStore.recover(current["path"])
            except CheckpointError as exc:
                # Dying at the very first mutation leaves an empty store;
                # refusing it loudly is the correct (non-silent) outcome.
                assert "nothing to recover" in str(exc)
                return
            # Either the recovery is bit-exact or the loss is declared.
            assert report.bit_exact or report.batches_lost > 0
            # And the recovered state is ALWAYS a clean-run prefix: the
            # store never resurrects a state no uncrashed stream ever had.
            assert_same_state(
                state_fingerprint(stream),
                clean_references[stream.batches_ingested],
            )
            # The recovered stream is live: it can keep ingesting.
            assert stream._journal.next_index == stream.batches_ingested

        points = kill_point_sweep(workload, verify, mode=mode)
        assert points > 20  # the workload really has many write points

    def test_empty_store_refuses_recovery(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to recover"):
            StreamStateStore.recover(tmp_path / "void")


def batch_edges(result):
    g = result.sparsifier
    return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())


class TestBatchCheckpointKillPoints:
    """Every write point of a checkpointed 4-job ``Engine.run_many``."""

    @pytest.fixture(scope="class")
    def batch(self):
        graphs = [
            gen.erdos_renyi_graph(20, 0.3, seed=40 + i, ensure_connected=True)
            for i in range(4)
        ]
        engine = Engine(SparsifyRequest(method="koutis", epsilon=0.5, seed=7))
        reference = [batch_edges(r) for r in engine.run_many(graphs)]
        return engine, graphs, reference

    @pytest.mark.parametrize("mode", ["clean", "torn", "flip"])
    def test_every_kill_point_resumes_or_refuses(self, mode, batch, tmp_path):
        engine, graphs, reference = batch
        journal = tmp_path / "batch.jsonl"

        def workload(io: CrashPointIO):
            journal.unlink(missing_ok=True)
            engine.run_many(graphs, checkpoint=journal, checkpoint_io=io)

        def verify(point: int) -> None:
            resumed = []
            for _ in range(3):
                try:
                    result = engine.run_many(graphs, checkpoint=journal)
                except CheckpointError:
                    resumed.append(None)  # refused loudly: never silent
                    continue
                # Never a different result.
                assert [batch_edges(r) for r in result.results] == reference
                resumed.append(result.resumed_jobs)
            if mode != "flip":
                # A crash loses at most the torn append: the first resume
                # completes the batch and the next ones restore all of it.
                assert resumed[0] is not None, f"kill point {point}: resume refused"
                assert resumed[1:] == [len(graphs)] * 2, f"kill point {point}: {resumed}"

        points = kill_point_sweep(workload, verify, mode=mode)
        assert points == 6  # header, four job appends and one directory fsync


# --------------------------------------------------------------------- #
# Satellite: torn-write fuzz at every byte offset, both journals
# --------------------------------------------------------------------- #


class TestTornWriteFuzz:
    def test_stream_journal_truncated_at_every_offset(self, tmp_path):
        pristine_store = tmp_path / "pristine"
        stream = StreamingSparsifier(
            12, seed=0, compaction_interval=10**6, store=pristine_store
        )
        reference = StreamingSparsifier(12, seed=0, compaction_interval=10**6)
        prefixes = {0: state_fingerprint(reference)}
        rng = np.random.default_rng(1)
        for _ in range(5):
            edges = rng.integers(0, 12, size=(4, 2))
            edges[:, 1] = (edges[:, 0] + 1 + edges[:, 1] % 10) % 12
            weights = rng.uniform(0.5, 2.0, size=4).round(3)
            stream.ingest(edges, weights)
            reference.ingest(edges, weights)
            prefixes[reference.batches_ingested] = state_fingerprint(reference)
        segment_name = "segment-00000000.jsonl"
        pristine = (pristine_store / "journal" / segment_name).read_bytes()
        store = tmp_path / "store"
        for offset in range(len(pristine)):
            shutil.rmtree(store, ignore_errors=True)
            (store / "journal").mkdir(parents=True)
            (store / "journal" / segment_name).write_bytes(pristine[:offset])
            try:
                recovered, report = StreamStateStore.recover(store)
            except CheckpointError as exc:
                # Cut inside the header: no parameters survive, nothing to
                # recover — refused loudly, never silent.
                assert "nothing to recover" in str(exc)
                assert b"\n" not in pristine[:offset]
                continue
            # Whatever survives is exactly the prefix of complete appends.
            complete = pristine[:offset].count(b"\n") - 1
            assert report.bit_exact
            assert recovered.batches_ingested == complete
            assert_same_state(state_fingerprint(recovered), prefixes[complete])

    def test_batch_journal_truncated_at_every_offset(self, tmp_path):
        graphs = [
            gen.erdos_renyi_graph(12, 0.4, seed=20 + i, ensure_connected=True)
            for i in range(3)
        ]
        journal = tmp_path / "batch.jsonl"
        engine = Engine(SparsifyRequest(method="koutis", epsilon=0.5, seed=7))
        full = engine.run_many(graphs, checkpoint=journal)
        reference = {i: batch_edges(r) for i, r in enumerate(full.results)}
        pristine = journal.read_bytes()
        loader = BatchJournal(journal, engine._checkpoint_pins(len(graphs)))
        for offset in range(len(pristine)):
            journal.write_bytes(pristine)
            truncate_file_at(journal, offset)
            # A cut is always a torn append: the complete prefix resumes.
            completed = loader.load_completed(graphs)
            whole_jobs = max(0, pristine[:offset].count(b"\n") - 1)
            assert sorted(completed) == list(range(whole_jobs))
            # Whatever resumes is bit-identical to the clean run's results.
            for index, result in completed.items():
                assert batch_edges(result) == reference[index]
            # The torn fragment is gone before anything appends after it.
            assert journal.read_bytes() == pristine[: pristine.rfind(b"\n", 0, offset) + 1]
        journal.write_bytes(pristine)


# --------------------------------------------------------------------- #
# Media corruption: flipped bits are refused or quarantined, never replayed
# --------------------------------------------------------------------- #


def run_store_stream(path, torture_graph, torture_batches, **overrides):
    kwargs = dict(
        seed=SEED,
        compaction_interval=COMPACTION_INTERVAL,
        store=path,
        snapshot_every=SNAPSHOT_EVERY,
        segment_bytes=SEGMENT_BYTES,
    )
    kwargs.update(overrides)
    stream = StreamingSparsifier(torture_graph.num_vertices, **kwargs)
    for edges, weights in torture_batches:
        stream.ingest(edges, weights)
    return stream


class TestBitFlipCorruption:
    def test_flipped_journal_byte_is_quarantined_and_accounted(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        segments = sorted((store / "journal").glob("segment-*.jsonl"))
        assert len(segments) >= 2
        victim = segments[0]  # the oldest retained segment: mid-journal
        flip_bit(victim, victim.stat().st_size // 2)
        # The strict reader refuses to attach to corruption.
        with pytest.raises(CheckpointError):
            list(StreamJournal.iter_batches(store / "journal"))
        stream, report = StreamStateStore.recover(store)
        # The ladder either salvaged around the flip bit-exactly (the flip
        # may land in a segment the snapshot already covers) or declared
        # the loss; either way the flipped bytes were never replayed.
        assert report.bit_exact or report.batches_lost > 0
        assert_same_state(
            state_fingerprint(stream), clean_references[stream.batches_ingested]
        )
        if not report.bit_exact:
            assert list(store.rglob("*.quarantined*"))

    def test_flipped_snapshot_falls_back_to_previous_snapshot(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        snapshots = sorted((store / "snapshots").glob("snap-*.state"))
        assert len(snapshots) == 2  # keep_snapshots=2 retained both
        flip_bit(snapshots[-1], snapshots[-1].stat().st_size // 2)
        stream, report = StreamStateStore.recover(store)
        # Newest snapshot quarantined; the previous one restores and the
        # journal suffix the store retained for it replays the rest.
        assert report.snapshots_quarantined == 1
        assert report.snapshot_used is not None
        assert report.snapshot_used < len(torture_batches)
        assert report.bit_exact
        assert stream.batches_ingested == len(torture_batches)
        assert_same_state(
            state_fingerprint(stream), clean_references[len(torture_batches)]
        )

    def test_losing_every_snapshot_still_replays_the_journal(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches, segment_bytes=10**6
        )  # one segment: the journal holds the full history
        for blob in (store / "snapshots").glob("snap-*.state"):
            flip_bit(blob, blob.stat().st_size // 2)
        stream, report = StreamStateStore.recover(store)
        assert report.snapshots_quarantined == 2
        assert report.snapshot_used is None
        assert report.bit_exact
        assert_same_state(
            state_fingerprint(stream), clean_references[len(torture_batches)]
        )


# --------------------------------------------------------------------- #
# Damaged records end bit-exact or declared lossy, never in a crash
# --------------------------------------------------------------------- #

SEGMENT = "journal/segment-00000000.jsonl"
_KEY = re.compile(rb'"([A-Za-z_]+)":')


def store_files(path):
    """Every byte of a store, by relative path."""
    return {
        entry.relative_to(path).as_posix(): entry.read_bytes()
        for entry in sorted(path.rglob("*"))
        if entry.is_file()
    }


def line_span(data, line):
    """``(start, end)`` byte offsets of ``line`` (end = its newline)."""
    start = 0
    for _ in range(line):
        start = data.index(b"\n", start) + 1
    return start, data.index(b"\n", start)


def key_name_offsets(data, start=0, end=None):
    """Byte offsets of every character of each distinct JSON key in ``data[start:end]``.

    Repeated keys (the manifest's per-array ``name``/``dtype``/``length``)
    are flipped at their first occurrence only: every repeat takes the
    same code path.
    """
    first = {}
    for match in _KEY.finditer(data[start:end]):
        first.setdefault(match.group(1), start + match.start(1))
    return [offset + i for key, offset in first.items() for i in range(len(key))]


def newest_manifest(store):
    return sorted((store / "snapshots").glob("snap-*.json"))[-1].relative_to(store).as_posix()


def recover_flipped(pristine, work, victim, offset, bit):
    """Recover a fresh copy of ``pristine`` with one bit of ``victim`` flipped."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(pristine, work)
    flip_bit(work / victim, offset, bit)
    return StreamStateStore.recover(work)


def assert_exact_or_declared(stream, report, original, clean_references):
    """The corruption contract: a clean-run prefix, and any loss declared."""
    assert_same_state(state_fingerprint(stream), clean_references[stream.batches_ingested])
    assert stream._journal_params() == original._journal_params()
    if report.bit_exact:
        assert stream.batches_ingested == original.batches_ingested
    else:
        assert report.batches_lost > 0


class TestRecoverArguments:
    @pytest.mark.parametrize("option", ["segment_bytes", "keep_snapshots", "snapshot_every"])
    def test_rejected_call_leaves_every_byte_unchanged(
        self, option, torture_graph, torture_batches, clean_references, tmp_path
    ):
        # A 4-batch journal-only store with one flipped digit in batch 2.
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches[:4], snapshot_every=None, segment_bytes=10**6
        )
        data = (store / SEGMENT).read_bytes()
        start, _ = line_span(data, 3)
        flip_bit(store / SEGMENT, data.index(b'"w": [', start) + len(b'"w": ['))
        before = store_files(store)
        with pytest.raises(CheckpointError, match=option):
            StreamStateStore.recover(store, **{option: 0})
        assert store_files(store) == before
        # So the next, valid call still finds and declares the loss.
        stream, report = StreamStateStore.recover(store)
        assert not report.bit_exact and report.batches_lost == 2
        assert_same_state(state_fingerprint(stream), clean_references[2])


class TestCorruptRecords:
    @pytest.mark.parametrize(
        "line, snapshot_every", [(3, None), (0, SNAPSHOT_EVERY)], ids=["batch-record", "header"]
    )
    def test_bit7_at_every_byte(
        self, line, snapshot_every, torture_graph, torture_batches, clean_references, tmp_path
    ):
        # Batch 2's record of a journal-only store, or the segment header
        # of a store whose snapshots are all that survive the flip.
        pristine = tmp_path / "pristine"
        original = run_store_stream(
            pristine, torture_graph, torture_batches,
            snapshot_every=snapshot_every, segment_bytes=10**6,
        )
        start, end = line_span((pristine / SEGMENT).read_bytes(), line)
        for offset in range(start, end + 1):
            stream, report = recover_flipped(pristine, tmp_path / "work", SEGMENT, offset, 7)
            assert_exact_or_declared(stream, report, original, clean_references)
            if snapshot_every is None:
                # Nothing stands in for the damaged batch: the loss is real.
                assert not report.bit_exact, offset

    @pytest.mark.parametrize("target", ["record", "header", "manifest"])
    def test_bit0_on_every_key_name(
        self, target, torture_graph, torture_batches, clean_references, tmp_path
    ):
        pristine = tmp_path / "pristine"
        original = run_store_stream(pristine, torture_graph, torture_batches, segment_bytes=10**6)
        victim = newest_manifest(pristine) if target == "manifest" else SEGMENT
        data = (pristine / victim).read_bytes()
        if target == "manifest":
            offsets = key_name_offsets(data)
        else:
            offsets = key_name_offsets(data, *line_span(data, 3 if target == "record" else 0))
        assert offsets
        for offset in offsets:
            stream, report = recover_flipped(pristine, tmp_path / "work", victim, offset, 0)
            assert_exact_or_declared(stream, report, original, clean_references)
            # The previous snapshot's journal suffix is retained, so a bad
            # newest manifest costs nothing.
            assert report.bit_exact or target != "manifest"

    @pytest.mark.parametrize("target", ["header", "manifest", "journal-only header"])
    def test_out_of_range_parameter_value(
        self, target, torture_graph, torture_batches, clean_references, tmp_path
    ):
        pristine = tmp_path / "pristine"
        original = run_store_stream(
            pristine, torture_graph, torture_batches, segment_bytes=10**6,
            snapshot_every=None if target == "journal-only header" else SNAPSHOT_EVERY,
        )
        victim = newest_manifest(pristine) if target == "manifest" else SEGMENT
        data = (pristine / victim).read_bytes()
        field = b'"sampling_probability": '
        offset = data.index(field + b"0.25") + len(field)  # 0.25 -> 1.25
        if target == "journal-only header":
            # No snapshot and no usable parameters: nothing valid remains.
            with pytest.raises(CheckpointError, match="unusable"):
                recover_flipped(pristine, tmp_path / "work", victim, offset, 0)
            return
        stream, report = recover_flipped(pristine, tmp_path / "work", victim, offset, 0)
        assert_exact_or_declared(stream, report, original, clean_references)
        # A bad manifest falls back to the previous snapshot, bit-exactly;
        # a bad journal header is quarantined with its batches declared lost.
        assert report.bit_exact == (target == "manifest")


# --------------------------------------------------------------------- #
# Bounded resume: snapshots cut replay to the journal suffix, provably
# --------------------------------------------------------------------- #


class TestSnapshotBoundedResume:
    def test_recovery_replays_only_the_post_snapshot_suffix(
        self, torture_graph, torture_batches, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(store, torture_graph, torture_batches)
        last_snapshot = original._store.last_snapshot_batch
        assert last_snapshot >= 4
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact
        # Read accounting, not timing: the snapshot restored its batches,
        # replay touched only the remainder, and at least one pre-snapshot
        # segment was skipped by header without reading its body.
        assert report.batches_restored == last_snapshot
        assert report.batches_replayed == len(torture_batches) - last_snapshot
        assert report.segments_skipped + report.segments_replayed == report.segments_scanned
        assert report.segments_skipped >= 1
        # And truncation bounded the journal itself: every surviving
        # segment is needed by a retained snapshot.
        infos = StreamJournal.scan_segments(store / "journal")
        retained_from = min(
            int(p.name[len("snap-") : -len(".json")])
            for p in (store / "snapshots").glob("snap-*.json")
        )
        assert all(
            successor.first_batch > retained_from
            for successor in infos[1:]
        )

    def test_checkpoint_requires_a_store(self, torture_graph):
        stream = StreamingSparsifier(torture_graph.num_vertices, seed=SEED)
        with pytest.raises(Exception, match="store"):
            stream.checkpoint()


# --------------------------------------------------------------------- #
# Leveled retained state
# --------------------------------------------------------------------- #


class TestLeveledState:
    def test_leveled_compaction_is_deterministic_and_bounded(self, torture_graph):
        capacity = 40
        runs = []
        for _ in range(2):
            stream = StreamingSparsifier(
                torture_graph.num_vertices,
                seed=SEED,
                compaction_interval=25,
                levels=3,
                level_capacity=capacity,
            )
            edges = np.column_stack([torture_graph.edge_u, torture_graph.edge_v])
            for lo in range(0, torture_graph.num_edges, 40):
                stream.ingest(
                    edges[lo : lo + 40], torture_graph.edge_weights[lo : lo + 40]
                )
            runs.append(stream)
        assert_same_state(state_fingerprint(runs[0]), state_fingerprint(runs[1]))
        sizes = runs[0].level_sizes
        assert len(sizes) == 3
        # Every level but the deepest honors its geometric capacity.
        for depth, size in enumerate(sizes[:-1]):
            assert size <= capacity * LEVEL_FANOUT**depth

    def test_single_level_matches_the_classic_pool(self, torture_graph):
        kwargs = dict(seed=SEED, compaction_interval=25)
        edges = np.column_stack([torture_graph.edge_u, torture_graph.edge_v])

        def run(**extra):
            stream = StreamingSparsifier(
                torture_graph.num_vertices, **kwargs, **extra
            )
            for lo in range(0, torture_graph.num_edges, 40):
                stream.ingest(
                    edges[lo : lo + 40], torture_graph.edge_weights[lo : lo + 40]
                )
            return stream

        classic, single = run(), run(levels=1)
        snap_a, snap_b = classic.snapshot(), single.snapshot()
        assert np.array_equal(snap_a.graph.edge_u, snap_b.graph.edge_u)
        assert np.array_equal(snap_a.graph.edge_v, snap_b.graph.edge_v)
        assert np.array_equal(snap_a.graph.edge_weights, snap_b.graph.edge_weights)

    def test_leveled_state_round_trips_through_recovery(
        self, torture_graph, torture_batches, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(
            store, torture_graph, torture_batches, levels=3, level_capacity=30
        )
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact
        assert stream.level_sizes == original.level_sizes
        assert_same_state(state_fingerprint(stream), state_fingerprint(original))
        # The recovered stream keeps leveling: one more batch lands
        # identically on both sides.
        extra_edges, extra_weights = torture_batches[0]
        original.ingest(extra_edges, extra_weights)
        stream.ingest(extra_edges, extra_weights)
        assert_same_state(state_fingerprint(stream), state_fingerprint(original))


# --------------------------------------------------------------------- #
# Harness self-tests: the torturer must itself be trustworthy
# --------------------------------------------------------------------- #


class TestCrashPointIO:
    def test_counts_and_dies_exactly_once(self, tmp_path):
        io = CrashPointIO(crash_at=2)
        io.mkdir(tmp_path / "d")
        io.append_line(tmp_path / "d" / "f", "one\n")
        with pytest.raises(SimulatedCrash):
            io.append_line(tmp_path / "d" / "f", "two\n")
        assert io.crashed
        with pytest.raises(SimulatedCrash):  # a dead process stays dead
            io.fsync_dir(tmp_path / "d")
        assert (tmp_path / "d" / "f").read_text() == "one\n"

    def test_torn_mode_leaves_half_the_payload(self, tmp_path):
        io = CrashPointIO(crash_at=0, mode="torn")
        target = tmp_path / "t"
        with pytest.raises(SimulatedCrash):
            io.write_bytes(target, b"abcdefgh")
        assert target.read_bytes() == b"abcd"

    def test_flip_mode_corrupts_one_byte(self, tmp_path):
        io = CrashPointIO(crash_at=0, mode="flip")
        target = tmp_path / "t"
        with pytest.raises(SimulatedCrash):
            io.write_bytes(target, b"\x00" * 8)
        data = target.read_bytes()
        assert len(data) == 8
        assert data.count(b"\x10") == 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CrashPointIO(mode="chaotic")
