"""The durable state store: snapshots + segmented journal + recovery ladder.

A :class:`StreamStateStore` owns one directory::

    store/
      journal/    segment-00000000.jsonl ...   (StreamJournal)
      snapshots/  snap-00000012.{state,json}   (checksummed snapshots)

The sparsifier journals every batch before processing it; on a
configurable cadence it writes a snapshot of its full state and the
store deletes journal segments wholly covered by the *oldest retained*
snapshot — bounding resume replay to the recent suffix while keeping a
fallback snapshot whose journal suffix is still intact.

Recovery (:meth:`StreamStateStore.recover`) walks a ladder instead of
PR 8's all-or-nothing load:

1. **Snapshot** — newest valid snapshot restores the sampler state;
   invalid ones (torn, bit-flipped, truncated) are quarantined and the
   ladder falls back to older ones, then to an empty state.
2. **Journal suffix** — batches journaled after the snapshot are
   replayed; pre-snapshot segments are skipped *by header* (never read).
3. **Prefix salvage** — a corrupt segment stops strict replay; the
   ladder salvages its valid prefix, quarantines the damaged file (and
   everything after it, which is no longer contiguous), and rewrites the
   salvaged batches into a fresh segment.

The outcome is a :class:`RecoveryReport`: either the restored state is
**bit-exact** with respect to every batch whose journal append completed,
or it is flagged **lossy** with an accounting of what was lost — never
silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import DEFAULT_IO, DurableIO, _decode_record
from repro.exceptions import CheckpointError
from repro.streaming.journal import (
    DEFAULT_SEGMENT_BYTES,
    JournalScanReport,
    StreamJournal,
    _QUARANTINE_SUFFIX,
    _record_lines,
    _segment_files,
    _validate_header,
    canonical_stream_params,
)
from repro.streaming.snapshot import list_snapshots, load_snapshot, write_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.config import SparsifierConfig
    from repro.parallel.failure import FailurePolicy
    from repro.streaming.sparsifier import StreamingSparsifier

__all__ = ["RecoveryReport", "StreamStateStore"]

_JOURNAL_DIR = "journal"
_SNAPSHOT_DIR = "snapshots"


@dataclass(frozen=True)
class RecoveryReport:
    """Structured outcome of one :meth:`StreamStateStore.recover` walk.

    ``bit_exact`` is the headline: True means the recovered stream is
    bit-identical to the pre-crash stream over every batch whose journal
    append completed (a torn trailing append — a batch that was never
    processed — may have been dropped, see ``torn_tail_dropped``).  False
    means data was provably lost; ``batches_lost`` counts journaled batch
    records that could not be applied, and ``notes`` says why.
    """

    store: str
    snapshot_used: Optional[int]
    snapshots_quarantined: int
    segments_quarantined: int
    batches_restored: int
    batches_replayed: int
    batches_skipped: int
    batches_lost: int
    segments_scanned: int
    segments_replayed: int
    segments_skipped: int
    torn_tail_dropped: bool
    bit_exact: bool
    notes: Tuple[str, ...]

    def summary(self) -> str:
        """One-paragraph human rendering (used by the CLI)."""
        verdict = "bit-exact" if self.bit_exact else "LOSSY"
        lines = [
            f"recovery of {self.store}: {verdict}",
            f"  snapshot used: "
            + (f"batch {self.snapshot_used}" if self.snapshot_used is not None else "none"),
            f"  batches: {self.batches_restored} restored from snapshot, "
            f"{self.batches_replayed} replayed from journal, {self.batches_lost} lost",
            f"  segments: {self.segments_scanned} scanned, "
            f"{self.segments_skipped} skipped (snapshot-covered), "
            f"{self.segments_quarantined} quarantined",
        ]
        if self.snapshots_quarantined:
            lines.append(f"  snapshots quarantined: {self.snapshots_quarantined}")
        if self.torn_tail_dropped:
            lines.append("  a torn trailing append (never processed) was dropped")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _quarantine(io: DurableIO, path: Path) -> Path:
    """Rename a damaged file out of the live namespace (kept for forensics)."""
    target = path.with_name(path.name + _QUARANTINE_SUFFIX)
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}{_QUARANTINE_SUFFIX}.{counter}")
        counter += 1
    io.replace(path, target)
    return target


def _check_store_options(
    segment_bytes: int, keep_snapshots: int, snapshot_every: Optional[int] = None
) -> None:
    """Reject bad store options before anything touches the disk."""
    for name, value in (
        ("segment_bytes", segment_bytes),
        ("keep_snapshots", keep_snapshots),
        ("snapshot_every", snapshot_every),
    ):
        if value is not None and int(value) < 1:
            raise CheckpointError(f"{name} must be >= 1, got {value}")


def _quarantine_unscannable(
    journal_dir: Path, io: DurableIO, notes: List[str]
) -> Tuple[int, int]:
    """Quarantine segments the strict scanner cannot even census.

    A torn trailing append only damages batch lines; a bit-flip (or any
    non-crash corruption) can damage a segment *header*, after which its
    ``first_batch`` — and therefore the contiguity of everything behind
    it — cannot be trusted.  The first segment with an unreadable or
    non-monotone header and every segment after it are quarantined;
    returns ``(segments quarantined, batch records lost with them)``.
    """
    files = _segment_files(journal_dir)
    bad_from: Optional[int] = None
    previous_first = -1
    for position, entry in enumerate(files):
        with open(entry, "rb") as handle:
            first_line = handle.readline()
        header: Optional[Dict[str, Any]] = None
        if first_line.endswith(b"\n") and first_line.strip():
            try:
                header = _validate_header(_decode_record(first_line), entry)
            except CheckpointError:
                header = None
        if header is None or int(header["first_batch"]) < previous_first:
            bad_from = position
            break
        previous_first = int(header["first_batch"])
    if bad_from is None:
        return 0, 0
    quarantined = 0
    lost = 0
    for entry in files[bad_from:]:
        lost += _record_lines(entry)
        _quarantine(io, entry)
        quarantined += 1
        notes.append(
            f"quarantined segment {entry.name}: unreadable or out-of-order header"
        )
    return quarantined, lost


class StreamStateStore:
    """Durable home of one stream: its journal, its snapshots, their lifecycle.

    The store does not decide *when* to snapshot — the sparsifier's
    ``snapshot_every`` cadence (or an explicit ``checkpoint()``) does; the
    store makes each snapshot atomic and durable, prunes old ones down to
    ``keep_snapshots``, and truncates journal segments that no retained
    snapshot could ever need again.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        self.journal_dir = self.path / _JOURNAL_DIR
        self.snapshot_dir = self.path / _SNAPSHOT_DIR
        _check_store_options(segment_bytes, keep_snapshots)
        self._segment_bytes = int(segment_bytes)
        self._keep_snapshots = int(keep_snapshots)
        self._io = io if io is not None else DEFAULT_IO
        existing = list_snapshots(self.snapshot_dir)
        self._last_snapshot_batch = existing[-1].sequence if existing else 0

    @staticmethod
    def has_content(path: Union[str, Path]) -> bool:
        """True when the store directory already holds stream state."""
        path = Path(path)
        return StreamJournal.has_content(path / _JOURNAL_DIR) or bool(
            list_snapshots(path / _SNAPSHOT_DIR)
        )

    @property
    def last_snapshot_batch(self) -> int:
        """Batch count covered by the newest snapshot (0 when none)."""
        return self._last_snapshot_batch

    def create_journal(self, params: Dict[str, Any]) -> StreamJournal:
        """A fresh journal under this store (refuses existing content)."""
        return StreamJournal(
            self.journal_dir,
            params,
            segment_bytes=self._segment_bytes,
            io=self._io,
        )

    def checkpoint(self, stream: "StreamingSparsifier") -> Path:
        """Snapshot the stream's state, prune, truncate; returns the manifest.

        Ordering is crash-safe end to end: the snapshot is atomic (its
        manifest is the commit record), pruning removes manifests before
        blobs, and journal truncation only deletes segments wholly covered
        by the *oldest retained* snapshot — so at every intermediate crash
        point the store still recovers bit-exactly (at worst it holds a
        few extra segments or an orphaned blob, both ignored).
        """
        counters, arrays = stream._state_payload()
        sequence = int(counters["batches_ingested"])
        params = canonical_stream_params(stream._journal_params())
        manifest = write_snapshot(
            self.snapshot_dir, sequence, params, counters, arrays, io=self._io
        )
        self._last_snapshot_batch = sequence
        snapshots = list_snapshots(self.snapshot_dir)
        retained = snapshots[-self._keep_snapshots :]
        for stale in snapshots[: -self._keep_snapshots]:
            # Manifest first: without its commit record the blob is an
            # ignored orphan, so a crash between the two removals is safe.
            self._io.remove(stale.manifest_path)
            if stale.state_path.exists():
                self._io.remove(stale.state_path)
        if stream._journal is not None and retained:
            stream._journal.truncate_before(retained[0].sequence)
        return manifest

    # ------------------------------------------------------------------ #
    # Recovery ladder
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        path: Union[str, Path],
        *,
        config: Optional["SparsifierConfig"] = None,
        failure_policy: Optional["FailurePolicy"] = None,
        track_exact: bool = True,
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        io: Optional[DurableIO] = None,
    ) -> Tuple["StreamingSparsifier", RecoveryReport]:
        """Walk the recovery ladder; returns ``(stream, report)``.

        The returned stream is re-attached to the store (journal cursor
        positioned, snapshot cadence restored), so ``ingest`` can continue
        immediately.  Raises :class:`CheckpointError` only when there is
        nothing to recover at all (no valid snapshot *and* no readable
        journal parameters).
        """
        from repro.streaming.sparsifier import StreamingSparsifier, _check_execution

        # Every rung below can quarantine or rewrite files, so a call that
        # is going to be refused must be refused first.
        _check_store_options(segment_bytes, keep_snapshots, snapshot_every)
        _check_execution(config, failure_policy)
        io = io if io is not None else DEFAULT_IO
        path = Path(path)
        journal_dir = path / _JOURNAL_DIR
        snapshot_dir = path / _SNAPSHOT_DIR
        notes: List[str] = []

        # Rung 1: newest snapshot that validates AND restores; quarantine
        # the ones that do not and fall back.
        stream: Optional[StreamingSparsifier] = None
        snapshot_used: Optional[int] = None
        snapshots_quarantined = 0
        for info in reversed(list_snapshots(snapshot_dir)):
            try:
                snap_params, counters, arrays = load_snapshot(info)
                # Read before the restore validates the rest: a damaged
                # batch count or exact-tracking flag must not be trusted.
                if counters.get("batches_ingested") != info.sequence or not isinstance(
                    counters.get("track_exact"), bool
                ):
                    raise CheckpointError("counters are damaged")
                snap_track = track_exact and bool(counters.get("track_exact"))
                candidate = StreamingSparsifier.from_stream_params(
                    snap_params,
                    config=config,
                    failure_policy=failure_policy,
                    track_exact=snap_track,
                )
                candidate._restore_state(counters, arrays)
            except CheckpointError as exc:
                snapshots_quarantined += 1
                notes.append(f"quarantined snapshot {info.sequence}: {exc}")
                if info.manifest_path.exists():
                    _quarantine(io, info.manifest_path)
                if info.state_path.exists():
                    _quarantine(io, info.state_path)
                continue
            if track_exact and not snap_track:
                notes.append(
                    "snapshot was written with track_exact=False; the exact "
                    "reference is unavailable in the recovered stream"
                )
            stream = candidate
            snapshot_used = info.sequence
            break

        # Journal census (quarantining segments whose headers are beyond
        # even the salvage reader) and parameter source of last resort.
        segments_quarantined, header_lost = _quarantine_unscannable(
            journal_dir, io, notes
        )
        journal_params: Optional[Dict[str, Any]] = None
        if StreamJournal.has_content(journal_dir):
            journal_params = StreamJournal.read_params(journal_dir)
        if stream is None:
            if journal_params is None:
                raise CheckpointError(
                    f"stream store {path} has nothing to recover: no valid "
                    "snapshot and no readable journal"
                )
            stream = StreamingSparsifier.from_stream_params(
                journal_params,
                config=config,
                failure_policy=failure_policy,
                track_exact=track_exact,
            )
        elif journal_params is not None and journal_params != canonical_stream_params(
            stream._journal_params()
        ):
            # The journal claims different stream parameters than the
            # snapshot that restored — its batches cannot be replayed into
            # this state without diverging.  Quarantine it wholesale.
            for entry in _segment_files(journal_dir):
                header_lost += _record_lines(entry)
                _quarantine(io, entry)
                segments_quarantined += 1
            notes.append(
                "journal parameters disagree with the restored snapshot; "
                "the journal was quarantined wholesale"
            )

        # Rung 2 + 3: replay the suffix, salvaging a valid prefix of the
        # first corrupt segment.
        scan = JournalScanReport()
        start_batch = stream._batches_ingested
        salvaged_to_rewrite: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        stream._replaying = True
        try:
            for index, u, v, w in StreamJournal.iter_batches(
                journal_dir, start_batch=start_batch, report=scan, salvage=True
            ):
                stream.ingest(np.column_stack([u, v]), w)
        finally:
            stream._replaying = False
        if scan.corruption is not None:
            notes.append(f"journal corruption: {scan.corruption}")
            # The corrupt segment and everything after it are no longer a
            # contiguous suffix — quarantine them, then rewrite the
            # salvaged prefix into a fresh segment below.  Damage inside
            # batches the restored snapshot already covers leaves no
            # journal that runs contiguously up to the restored state, so
            # then the whole journal is quarantined and restarts there.
            restart = scan.corrupt_batch is None or scan.corrupt_batch < stream._batches_ingested
            if not restart:
                salvaged_to_rewrite = scan.salvaged
            for entry in _segment_files(journal_dir):
                if restart or entry.name >= scan.corrupt_segment:
                    _quarantine(io, entry)
                    segments_quarantined += 1

        # Re-attach a journal whose cursor agrees with the stream state.
        if StreamJournal.has_content(journal_dir):
            journal = StreamJournal.attach(
                journal_dir, segment_bytes=segment_bytes, io=io
            )
        else:
            journal = StreamJournal(
                journal_dir,
                canonical_stream_params(stream._journal_params()),
                segment_bytes=segment_bytes,
                start_index=stream._batches_ingested - len(salvaged_to_rewrite),
                io=io,
            )
        for index, u, v, w in salvaged_to_rewrite:
            journal.append_batch(index, u, v, w)
        if journal.next_index != stream._batches_ingested:
            raise CheckpointError(
                f"recovery invariant breach in {path}: journal cursor at batch "
                f"{journal.next_index} but stream state holds "
                f"{stream._batches_ingested} batches"
            )

        store = cls(
            path,
            segment_bytes=segment_bytes,
            keep_snapshots=keep_snapshots,
            io=io,
        )
        stream._journal = journal
        stream._store = store
        stream._snapshot_every = (
            None if snapshot_every is None else int(snapshot_every)
        )

        batches_lost = scan.batches_lost + header_lost
        report = RecoveryReport(
            store=str(path),
            snapshot_used=snapshot_used,
            snapshots_quarantined=snapshots_quarantined,
            segments_quarantined=segments_quarantined,
            batches_restored=start_batch,
            batches_replayed=scan.batches_replayed,
            batches_skipped=scan.batches_skipped,
            batches_lost=batches_lost,
            segments_scanned=scan.segments_seen,
            segments_replayed=scan.segments_replayed,
            segments_skipped=scan.segments_skipped,
            torn_tail_dropped=scan.torn_tail_dropped,
            bit_exact=scan.corruption is None and batches_lost == 0,
            notes=tuple(notes),
        )
        return stream, report
