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
* **Torn-write fuzz** — truncating the stream store's journal at *every
  byte offset* yields either a bit-exact prefix replay or a clean refusal.
* **Media corruption** — a flipped bit mid-journal is never silently
  replayed: the recovery ladder quarantines and accounts for the loss;
  a flipped bit in the newest snapshot makes the ladder fall back to the
  previous snapshot (whose journal suffix the store deliberately
  retained).  Every damaged record — a bit-7 flip at any byte of a batch
  record, a flipped key name in a record, a segment header or a snapshot
  manifest, an out-of-range pinned parameter — ends bit-exact or
  declared lossy, never in a crash.
* **Sealed records** — every journal line and every manifest unseals; a
  flipped digit in a segment header or a manifest is refused, declared
  or falls back, never trusted; an older, unsealed format is refused by
  its version; and one recovery reads each segment header once, parses
  each replayed segment once and decodes only the payloads it replays.
* **Arguments first** — a ``recover()`` call with a bad option is refused
  before it touches a single byte of the store.
* **Bounded resume** — after a snapshot, recovery replays only the
  post-snapshot journal suffix, proven through the scan's read
  accounting, not timing.
* **Older-version stores** — a store whose headers and manifests pin the
  options this version no longer has recovers bit-exactly when each
  holds the value that means "unset", and is otherwise refused by name
  without a byte of it changed.

Run with ``-m durability`` to select only this file.
"""

from __future__ import annotations

import builtins
import io
import json
import re
import shutil
from collections import Counter

import numpy as np
import pytest

import repro.streaming.journal as journal_module
from repro.core.checkpoint import DurableIO, batch_graph_digest, seal, unseal
from repro.core.config import SparsifierConfig
from repro.exceptions import CheckpointError, StreamingError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.streaming import StreamingSparsifier, StreamStateStore
from repro.streaming.journal import canonical_stream_params
from repro.testing.faults import (
    CrashPointIO,
    SimulatedCrash,
    flip_bit,
    kill_point_sweep,
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


# The torture stream's bundles absorb every working set (``outside`` is
# 0 in each compaction), so its records hold all-ones bundle masks.  With
# one spanner per bundle its compactions sample, and a wrongly applied
# record would change the state.
SAMPLING = dict(config=SparsifierConfig(bundle_t=1))


@pytest.fixture(scope="module")
def sampling_references(torture_graph, torture_batches):
    """Fingerprint of a clean ``SAMPLING`` run after each batch count."""
    stream = StreamingSparsifier(
        torture_graph.num_vertices, seed=SEED, compaction_interval=COMPACTION_INTERVAL, **SAMPLING
    )
    refs = {0: state_fingerprint(stream)}
    for edges, weights in torture_batches:
        stream.ingest(edges, weights)
        refs[stream.batches_ingested] = state_fingerprint(stream)
    assert sum(record.kept_edges for record in stream.records) > 0
    return refs


# --------------------------------------------------------------------- #
# The tentpole guarantee: the kill-point sweep
# --------------------------------------------------------------------- #


class TestKillPointSweep:
    @pytest.mark.parametrize("overrides", [{}, SAMPLING], ids=["torture", "sampling"])
    @pytest.mark.parametrize("mode", ["clean", "torn", "flip"])
    def test_every_crash_point_recovers_without_silent_divergence(
        self, mode, overrides, torture_graph, torture_batches, clean_references,
        sampling_references, tmp_path,
    ):
        stores = iter(range(10**6))
        references = sampling_references if overrides else clean_references

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
                **overrides,
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
                references[stream.batches_ingested],
            )
            # The recovered stream is live: it can keep ingesting.
            assert stream._journal.next_index == stream.batches_ingested

        points = kill_point_sweep(workload, verify, mode=mode)
        assert points > 20  # the workload really has many write points

    def test_empty_store_refuses_recovery(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to recover"):
            StreamStateStore.recover(tmp_path / "void")


# --------------------------------------------------------------------- #
# Torn-write fuzz at every byte offset
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
        stream, report = StreamStateStore.recover(store)
        # The ladder either salvaged around the flip bit-exactly (the flip
        # may land in a segment the snapshot already covers) or declared
        # the loss; either way the flipped bytes were never replayed.
        assert report.bit_exact or report.batches_lost > 0
        assert_same_state(
            state_fingerprint(stream), clean_references[stream.batches_ingested]
        )
        if not report.bit_exact:
            assert list(store.rglob("*.quarantined*")) and report.notes

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


def batch_line(data, index):
    """Line number of batch ``index``'s record (compaction records sit between batches)."""
    return data[: data.index(b'{"kind": "batch", "index": %d,' % index)].count(b"\n")


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


def digit_offsets(data, start=0, end=None):
    """Byte offsets of every ASCII digit in ``data[start:end]``."""
    return [start + i for i, byte in enumerate(data[start:end]) if 48 <= byte <= 57]


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
        start, _ = line_span(data, batch_line(data, 2))
        flip_bit(store / SEGMENT, data.index(b'"w": "', start) + len(b'"w": "'))
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
        "batch, snapshot_every", [(2, None), (None, SNAPSHOT_EVERY)], ids=["batch-record", "header"]
    )
    def test_bit7_at_every_byte(
        self, batch, snapshot_every, torture_graph, torture_batches, clean_references, tmp_path
    ):
        # Batch 2's record of a journal-only store, or the segment header
        # of a store whose snapshots are all that survive the flip.
        pristine = tmp_path / "pristine"
        original = run_store_stream(
            pristine, torture_graph, torture_batches,
            snapshot_every=snapshot_every, segment_bytes=10**6,
        )
        data = (pristine / SEGMENT).read_bytes()
        start, end = line_span(data, 0 if batch is None else batch_line(data, batch))
        for offset in range(start, end + 1):
            stream, report = recover_flipped(pristine, tmp_path / "work", SEGMENT, offset, 7)
            assert_exact_or_declared(stream, report, original, clean_references)
            if snapshot_every is None:
                # Nothing stands in for the damaged batch: the loss is real.
                assert not report.bit_exact, offset

    @pytest.mark.parametrize(
        "target, offsets_in",
        [
            ("record", key_name_offsets),
            ("header", key_name_offsets),
            ("manifest", key_name_offsets),
            ("header", digit_offsets),
            ("newest header", digit_offsets),
            ("journal-only header", digit_offsets),
            ("manifest", digit_offsets),
        ],
        ids=[
            "record", "header", "manifest", "header-digits", "newest-header-digits",
            "journal-only-header-digits", "manifest-digits",
        ],
    )
    def test_bit0_on_every_key_name(
        self, target, offsets_in, torture_graph, torture_batches, clean_references, tmp_path
    ):
        # Every key name, or every digit: a value, a pinned parameter or
        # the seal's own digest.  The newest header is that of a rotated
        # journal whose older segments the census keeps.
        pristine = tmp_path / "pristine"
        original = run_store_stream(
            pristine, torture_graph, torture_batches,
            snapshot_every=None if target == "journal-only header" else SNAPSHOT_EVERY,
            segment_bytes=SEGMENT_BYTES if target == "newest header" else 10**6,
        )
        newest_segment = max(pristine.glob("journal/segment-*.jsonl"))
        victim = newest_manifest(pristine) if target == "manifest" else (
            newest_segment.relative_to(pristine).as_posix()
        )
        data = (pristine / victim).read_bytes()
        if target == "manifest":
            offsets = offsets_in(data)
        else:
            line = batch_line(data, 2) if target == "record" else 0
            offsets = offsets_in(data, *line_span(data, line))
        assert offsets
        for offset in offsets:
            if target == "journal-only header":
                # The journal is all there is, and its parameters are gone.
                with pytest.raises(CheckpointError, match="nothing to recover"):
                    recover_flipped(pristine, tmp_path / "work", victim, offset, 0)
                continue
            stream, report = recover_flipped(pristine, tmp_path / "work", victim, offset, 0)
            assert_exact_or_declared(stream, report, original, clean_references)
            # The previous snapshot's journal suffix is retained, so a bad
            # newest manifest costs nothing.
            assert report.snapshots_quarantined == (target == "manifest"), offset
            assert report.bit_exact or target != "manifest", offset

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
            with pytest.raises(CheckpointError, match="nothing to recover"):
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
        infos, damaged, _ = journal_module._census(store / "journal")
        assert not damaged
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
# Compaction records: recovery applies verified outcomes, recomputes the rest
# --------------------------------------------------------------------- #

COMPACTION_PREFIX = b'{"kind": "compaction"'


def compaction_lines(data):
    """Line numbers of every compaction record in a segment."""
    return [
        number
        for number, line in enumerate(data.split(b"\n"))
        if line.startswith(COMPACTION_PREFIX)
    ]


def payload_offsets(data, line):
    """Byte offsets of every character of a compaction record's two bitmasks."""
    start, end = line_span(data, line)
    offsets = []
    for key in (b'"bundle": "', b'"kept": "'):
        first = data.index(key, start, end) + len(key)
        offsets.extend(range(first, data.index(b'"', first, end)))
    return offsets


class KillBeforeCompactionRecord(DurableIO):
    """Dies when asked to append compaction record number ``nth`` (from 0)."""

    def __init__(self, nth):
        self.nth = nth
        self.seen = 0

    def append_line(self, path, text):
        if text.startswith(COMPACTION_PREFIX.decode()):
            if self.seen == self.nth:
                raise SimulatedCrash(f"killed before compaction record {self.nth}")
            self.seen += 1
        super().append_line(path, text)


class TestCompactionRecords:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            SAMPLING,
            {"window": 3, **SAMPLING},
        ],
        ids=["torture", "sampling", "window"],
    )
    def test_every_compaction_is_reused_at_every_batch_count(
        self, overrides, torture_graph, torture_batches, tmp_path
    ):
        kwargs = dict(seed=SEED, compaction_interval=COMPACTION_INTERVAL, **overrides)
        reference = StreamingSparsifier(torture_graph.num_vertices, **kwargs)
        store = tmp_path / "store"
        stream = StreamingSparsifier(
            torture_graph.num_vertices, store=store, segment_bytes=SEGMENT_BYTES, **kwargs
        )
        for edges, weights in torture_batches:
            stream.ingest(edges, weights)
            reference.ingest(edges, weights)
            # Journal-only store: recovery replays every compaction so far.
            recovered, report = StreamStateStore.recover(store)
            assert report.bit_exact
            assert report.compactions_recomputed == 0
            assert report.compactions_reused == reference.compactions
            assert_same_state(state_fingerprint(recovered), state_fingerprint(reference))
        assert reference.compactions >= 5

    def test_kill_before_a_compaction_record_recomputes_only_that_one(
        self, torture_graph, torture_batches, sampling_references, tmp_path
    ):
        total = sampling_references[len(torture_batches)][0]["compactions"]
        for nth in range(total):
            store = tmp_path / f"store-{nth}"
            with pytest.raises(SimulatedCrash):
                run_store_stream(
                    store, torture_graph, torture_batches, snapshot_every=None,
                    io=KillBeforeCompactionRecord(nth), **SAMPLING,
                )
            stream, report = StreamStateStore.recover(store)
            # The batch that triggered compaction ``nth`` was journaled, so
            # it replays; only its compaction has no record to apply.
            assert report.bit_exact
            assert report.compactions_reused == nth
            assert report.compactions_recomputed == 1
            assert stream.compactions == nth + 1
            assert_same_state(
                state_fingerprint(stream), sampling_references[stream.batches_ingested]
            )

    @pytest.mark.parametrize("bit", [0, 7])
    def test_flipped_payload_bit_is_recomputed_not_applied(
        self, bit, torture_graph, torture_batches, sampling_references, tmp_path
    ):
        pristine = tmp_path / "pristine"
        original = run_store_stream(
            pristine, torture_graph, torture_batches, snapshot_every=None, segment_bytes=10**6,
            **SAMPLING,
        )
        data = (pristine / SEGMENT).read_bytes()
        line = compaction_lines(data)[-1]  # 136 working edges, 24 outside, 6 kept
        assert json.loads(data.split(b"\n")[line])["outside"] > 0
        for offset in payload_offsets(data, line):
            stream, report = recover_flipped(pristine, tmp_path / "work", SEGMENT, offset, bit)
            assert report.bit_exact, offset
            assert report.compactions_recomputed == 1, offset
            assert report.compactions_reused == original.compactions - 1
            assert any("failed verification" in note for note in report.notes)
            assert_same_state(
                state_fingerprint(stream), sampling_references[len(torture_batches)]
            )

    def test_record_of_another_working_set_is_recomputed_not_applied(
        self, torture_graph, torture_batches, sampling_references, tmp_path
    ):
        store, other = tmp_path / "store", tmp_path / "other"
        options = dict(snapshot_every=None, segment_bytes=10**6, **SAMPLING)
        original = run_store_stream(store, torture_graph, torture_batches, **options)
        # Same stream parameters and batch sizes, batch 2 at doubled weight:
        # compaction 1 runs on a working set of the same size, another digest.
        doubled = [
            (edges, weights * 2 if index == 2 else weights)
            for index, (edges, weights) in enumerate(torture_batches)
        ]
        run_store_stream(other, torture_graph, doubled, **options)
        lines = (store / SEGMENT).read_bytes().split(b"\n")
        foreign = (other / SEGMENT).read_bytes().split(b"\n")
        target = compaction_lines(b"\n".join(lines))[1]
        ours, theirs = json.loads(lines[target]), json.loads(foreign[target])
        assert (ours["index"], ours["size"]) == (theirs["index"], theirs["size"])
        assert ours["work_digest"] != theirs["work_digest"]
        lines[target] = foreign[target]  # a self-consistent record, the wrong working set
        (store / SEGMENT).write_bytes(b"\n".join(lines))
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact
        assert report.compactions_recomputed == 1
        assert report.compactions_reused == original.compactions - 1
        assert any("does not match its working set" in note for note in report.notes)
        assert_same_state(state_fingerprint(stream), sampling_references[len(torture_batches)])

    def test_record_under_another_index_is_not_applied(
        self, torture_graph, torture_batches, sampling_references, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(
            store, torture_graph, torture_batches, snapshot_every=None, segment_bytes=10**6,
            **SAMPLING,
        )
        lines = (store / SEGMENT).read_bytes().split(b"\n")
        first, second = compaction_lines(b"\n".join(lines))[1:3]
        # Compaction 1's record moves to where compaction 2's was: neither
        # compaction finds a record under its own index.
        lines[second] = lines[first]
        del lines[first]
        (store / SEGMENT).write_bytes(b"\n".join(lines))
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact
        assert report.compactions_recomputed == 2
        assert report.compactions_reused == original.compactions - 2
        assert any("compaction 1 matched no replayed compaction" in note for note in report.notes)
        assert_same_state(state_fingerprint(stream), sampling_references[len(torture_batches)])

    def test_salvage_rewrite_keeps_the_prefix_compaction_records(
        self, torture_graph, torture_batches, sampling_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches, snapshot_every=None, segment_bytes=10**6,
            **SAMPLING,
        )
        data = (store / SEGMENT).read_bytes()
        start, _ = line_span(data, batch_line(data, 4))
        flip_bit(store / SEGMENT, data.index(b'"w": "', start) + len(b'"w": "'))
        stream, report = StreamStateStore.recover(store)
        assert not report.bit_exact and stream.batches_ingested == 4
        salvaged = stream.compactions
        assert salvaged == report.compactions_reused >= 2
        # The rewritten segment carries the prefix's records along with its
        # batches, so the next recovery applies them all again.
        again, report = StreamStateStore.recover(store)
        assert report.bit_exact
        assert (report.compactions_reused, report.compactions_recomputed) == (salvaged, 0)
        assert_same_state(state_fingerprint(again), sampling_references[4])

    def test_version_2_segment_is_never_replayed(self, torture_graph, torture_batches, tmp_path):
        pristine = tmp_path / "pristine"
        original = run_store_stream(pristine, torture_graph, torture_batches[:5], segment_bytes=10**6)
        params = canonical_stream_params(original._journal_params())
        # The same five batches under an unsealed version-2 header (JSON
        # number lists, no compaction records) or version-3 header (the
        # format before every record was sealed).
        for version in (2, 3):
            store = tmp_path / f"store-{version}"
            shutil.copytree(pristine, store)
            cadence = {"snapshot_every": SNAPSHOT_EVERY} if version == 3 else {}
            lines = [json.dumps({
                "kind": "header", "version": version, "segment": 0, "first_batch": 0,
                **params, **cadence,
            })]
            for index, (edges, weights) in enumerate(torture_batches[:5]):
                u, v = edges.min(axis=1), edges.max(axis=1)
                lines.append(json.dumps({
                    "kind": "batch", "index": index, "u": u.tolist(), "v": v.tolist(),
                    "w": weights.tolist(),
                    "digest": batch_graph_digest(Graph(params["num_vertices"], u, v, weights)),
                }))
            (store / SEGMENT).write_text("\n".join(lines) + "\n", encoding="utf-8")
            stream, report = StreamStateStore.recover(store)
            # The quarantine note names the old format by its version.
            assert any(f"version {version}, expected 4" in note for note in report.notes)
            # The newest snapshot (batch 4) restores; batch 4 itself lived only
            # in the refused segment, so its loss is declared.
            assert report.snapshot_used == 4
            assert not report.bit_exact and report.batches_lost == 5
            assert stream.batches_ingested == 4
            assert list((store / "journal").glob("*.quarantined*"))


# --------------------------------------------------------------------- #
# Sealed records: every record verifies, and recovery reads the journal once
# --------------------------------------------------------------------- #


def assert_every_line_unseals(path):
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"", path
    for number, line in enumerate(lines[:-1]):
        assert unseal(line) is not None, (path, number)


class TestSealedRecords:
    def test_version_1_manifest_is_quarantined_and_named(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(store, torture_graph, torture_batches)
        manifest = store / newest_manifest(store)
        body = unseal(manifest.read_bytes())
        manifest.write_text(json.dumps({**body, "version": 1}), encoding="utf-8")
        stream, report = StreamStateStore.recover(store)
        assert report.snapshots_quarantined == 1
        assert any("version 1, expected 2" in note for note in report.notes)
        assert report.snapshot_used < original.batches_ingested and report.bit_exact
        assert_same_state(state_fingerprint(stream), clean_references[len(torture_batches)])

    def test_every_record_is_sealed(self, torture_graph, torture_batches, tmp_path):
        # Segment rotation and snapshots ...
        rotated = tmp_path / "rotated"
        run_store_stream(rotated, torture_graph, torture_batches, **SAMPLING)
        # ... and a window and a salvage rewrite of batches 0-3.
        salvaged = tmp_path / "salvaged"
        run_store_stream(
            salvaged, torture_graph, torture_batches, window=3,
            snapshot_every=None, segment_bytes=10**6, **SAMPLING,
        )
        data = (salvaged / SEGMENT).read_bytes()
        start, _ = line_span(data, batch_line(data, 4))
        flip_bit(salvaged / SEGMENT, data.index(b'"w": "', start) + len(b'"w": "'))
        stream, report = StreamStateStore.recover(salvaged)
        assert not report.bit_exact and stream.batches_ingested == 4 and report.compactions_reused
        assert list((salvaged / "journal").glob("*.quarantined*"))
        for store in (rotated, salvaged):
            for segment in (store / "journal").glob("segment-*.jsonl"):
                assert_every_line_unseals(segment)
            for manifest in (store / "snapshots").glob("snap-*.json"):
                assert unseal(manifest.read_bytes()) is not None, manifest
        assert len(list((rotated / "snapshots").glob("snap-*.json"))) == 2

    @pytest.mark.parametrize("damage", ["malformed payload", "digest"])
    def test_damaged_batch_is_refused_strictly_and_declared_lost(
        self, damage, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches[:4], snapshot_every=None, segment_bytes=10**6
        )
        lines = (store / SEGMENT).read_bytes().split(b"\n")
        number = batch_line(b"\n".join(lines), 2)
        if damage == "malformed payload":
            record = unseal(lines[number])
            record["u"] = record["u"][:-4]  # a valid seal over a payload that does not decode
            lines[number] = seal(record).encode("ascii")
        else:
            lines[number] = lines[number].replace(b'"index": 2', b'"index": 3')
        (store / SEGMENT).write_bytes(b"\n".join(lines))
        # Recovery keeps the intact batches 0 and 1 and names the damage.
        stream, report = StreamStateStore.recover(store)
        assert any(damage in note for note in report.notes)
        assert not report.bit_exact and report.batches_lost == 2
        assert_same_state(state_fingerprint(stream), clean_references[2])


class TestOnePassRecovery:
    @pytest.mark.parametrize(
        "batches, snapshot_every, segment_bytes",
        [(5, SNAPSHOT_EVERY, SEGMENT_BYTES), (6, 4, 10**6)],
        ids=["rotated", "one-segment"],
    )
    def test_recovery_reads_each_header_once_and_decodes_only_replayed_records(
        self, batches, snapshot_every, segment_bytes, torture_graph, torture_batches, monkeypatch,
        tmp_path,
    ):
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches[:batches], snapshot_every=snapshot_every,
            segment_bytes=segment_bytes,
        )
        live = sorted((store / "journal").glob("segment-*.jsonl"))
        parsed, decoded = Counter(), []
        parse, unpack = journal_module._parse_segment, journal_module._unpack
        monkeypatch.setattr(
            journal_module, "_parse_segment",
            lambda path, *args, **kwargs: parsed.update([path.name]) or parse(path, *args, **kwargs),
        )
        monkeypatch.setattr(
            journal_module, "_unpack", lambda *args: decoded.append(args) or unpack(*args)
        )
        opened, open_file = Counter(), io.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return open_file(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)  # open(path)
        monkeypatch.setattr(io, "open", counting_open)  # Path.read_bytes()
        stream, report = StreamStateStore.recover(store)
        monkeypatch.undo()
        assert report.bit_exact and report.batches_replayed and report.batches_skipped
        replayed = live[len(live) - report.segments_replayed :]
        # One header read per live segment for the census, one parse per replayed one ...
        assert {path.name: opened[str(path)] for path in live} == {
            path.name: 1 + (path in replayed) for path in live
        }
        assert parsed == Counter(path.name for path in replayed)
        # ... and payloads decoded for the replayed batches (u, v, w) and
        # the compactions they triggered (bundle, kept) only.
        assert len(decoded) == 3 * report.batches_replayed + 2 * report.compactions_reused
        assert report.compactions_recomputed == 0 and report.compactions_reused


# --------------------------------------------------------------------- #
# Older-version stores: options this version lacks are refused by name
# --------------------------------------------------------------------- #

# The stream options an older version pinned and this one lacks, at the
# values that replay as this version's stream.
UNSET_OPTIONS = {"decay": None, "kout_presample": None, "levels": 1, "level_capacity": 60}


def pin_deleted_options(store, options):
    """Re-seal every segment header and snapshot manifest of ``store`` with ``options`` pinned.

    That is how the version that had those options wrote them; its
    manifests also counted ``presampled_away`` and ``num_levels``.
    """
    for segment in (store / "journal").glob("segment-*.jsonl"):
        header, rest = segment.read_bytes().split(b"\n", 1)
        segment.write_bytes(seal({**unseal(header), **options}).encode("ascii") + b"\n" + rest)
    for manifest in (store / "snapshots").glob("snap-*.json"):
        body = unseal(manifest.read_bytes())
        body["params"].update(options)
        body["counters"].update(presampled_away=0, num_levels=1)
        manifest.write_text(seal(body), encoding="ascii")


class TestOlderVersionStores:
    @pytest.mark.parametrize("snapshot_every", [None, SNAPSHOT_EVERY], ids=["journal", "snapshots"])
    @pytest.mark.parametrize("overrides", [{}, {"window": 3}], ids=["default", "window"])
    def test_unset_options_recover_bit_exactly(
        self, overrides, snapshot_every, torture_graph, torture_batches, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(
            store, torture_graph, torture_batches, snapshot_every=snapshot_every, **overrides
        )
        pin_deleted_options(store, UNSET_OPTIONS)
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact and report.compactions_recomputed == 0
        assert report.snapshot_used == (None if snapshot_every is None else len(torture_batches))
        assert_same_state(state_fingerprint(stream), state_fingerprint(original))
        assert not list(store.rglob("*.quarantined*"))

    @pytest.mark.parametrize("snapshot_every", [None, SNAPSHOT_EVERY], ids=["journal", "snapshots"])
    @pytest.mark.parametrize(
        "key, value", [("levels", 3), ("kout_presample", 2), ("decay", 0.8)],
        ids=["levels", "kout_presample", "decay"],
    )
    def test_set_option_is_refused_by_name(
        self, key, value, snapshot_every, torture_graph, torture_batches, tmp_path
    ):
        # The store is intact: refusing it must not quarantine or rewrite a byte.
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches, snapshot_every=snapshot_every)
        pin_deleted_options(store, {**UNSET_OPTIONS, key: value})
        before = store_files(store)
        with pytest.raises(StreamingError, match=f"pins {key}={value}"):
            StreamStateStore.recover(store)
        assert store_files(store) == before
        assert not list(store.rglob("*.quarantined*"))

    def test_cli_recover_exits_2_naming_the_key(self, torture_graph, torture_batches, tmp_path, cli_error):
        # Status 1 would read as "recovered but lossy".
        from repro.cli import main

        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        pin_deleted_options(store, {**UNSET_OPTIONS, "levels": 3})
        before = store_files(store)
        assert main(["recover", str(store)]) == 2
        assert re.search("pins levels=3", cli_error())
        assert store_files(store) == before


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
