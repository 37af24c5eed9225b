"""The durable state store: snapshots + segmented journal + recovery ladder.

A :class:`StreamStateStore` owns one directory::

    store/
      journal/    segment-00000000.jsonl ...   (StreamJournal, format v4)
      snapshots/  snap-00000012.{state,json}   (checksummed snapshots, format v2)

Every JSON record in both directories is sealed
(:func:`~repro.core.checkpoint.seal`), so a damaged byte in a segment
header, a batch or compaction record or a manifest reads as a record
that is not there.  The sparsifier journals every batch before
processing it; on a configurable cadence it writes a snapshot of its
full state and the store deletes journal segments wholly covered by the
*oldest retained* snapshot — bounding resume replay to the recent suffix
while keeping a fallback snapshot whose journal suffix is still intact.

Recovery (:meth:`StreamStateStore.recover`) walks a ladder instead of an
all-or-nothing load, reading the journal once:

1. **Snapshot** — newest valid snapshot restores the sampler state;
   invalid ones (torn, bit-flipped, truncated, unsealed) are quarantined
   and the ladder falls back to older ones, then to an empty state.
2. **Header census** — every segment header is read once; a damaged or
   out-of-order header is quarantined with everything after it, and the
   rest supply the pinned parameters and the snapshot cadence.
3. **Journal suffix** — batches journaled after the snapshot are
   replayed, each replayed segment parsed once; pre-snapshot segments are
   skipped *by header* (never read) and covered records are verified but
   never decoded.  The re-attached journal appends where replay stopped.
4. **Prefix salvage** — a corrupt segment stops strict replay; the
   ladder salvages its valid prefix, quarantines the damaged file (and
   everything after it, which is no longer contiguous), and rewrites the
   salvaged records into a fresh segment.

The outcome is a :class:`RecoveryReport`: either the restored state is
**bit-exact** with respect to every batch whose journal append completed,
or it is flagged **lossy** with an accounting of what was lost — never
silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import DEFAULT_IO, DurableIO
from repro.exceptions import CheckpointError
from repro.streaming.journal import (
    DEFAULT_SEGMENT_BYTES,
    BatchRecords,
    JournalScanReport,
    StreamJournal,
    _QUARANTINE_SUFFIX,
    _census,
    _record_lines,
    _replay_segments,
    canonical_stream_params,
)
from repro.streaming.snapshot import list_snapshots, load_snapshot, write_snapshot
from repro.utils.validation import check_count

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

    ``compactions_reused`` counts replayed compactions whose journaled
    outcome verified and was applied without running the pass;
    ``compactions_recomputed`` counts the ones that ran because their
    record was missing, torn, undecodable or did not match the working
    set.  Either way the state is the one the pass computes.
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
    compactions_reused: int
    compactions_recomputed: int
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
            f"  compactions: {self.compactions_reused} reused from the journal, "
            f"{self.compactions_recomputed} recomputed",
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
        if value is not None:
            check_count(value, name, CheckpointError)


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

    def create_journal(
        self, params: Dict[str, Any], snapshot_every: Optional[int]
    ) -> StreamJournal:
        """A fresh journal under this store (refuses existing content).

        Its headers record ``snapshot_every`` so recovery can restore the
        cadence.
        """
        return StreamJournal(
            self.journal_dir,
            params,
            segment_bytes=self._segment_bytes,
            snapshot_every=snapshot_every,
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
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        io: Optional[DurableIO] = None,
    ) -> Tuple["StreamingSparsifier", RecoveryReport]:
        """Walk the recovery ladder; returns ``(stream, report)``.

        The returned stream is re-attached to the store (journal cursor
        positioned), so ``ingest`` can continue immediately.  Its snapshot
        cadence is ``snapshot_every`` when given, else the one the newest
        journal segment header records.  Replay applies every journaled
        compaction outcome that verifies against its working set and
        recomputes the rest.  Raises :class:`CheckpointError` only when
        there is nothing to recover at all (no valid snapshot *and* no
        readable journal parameters).
        """
        from repro.streaming.sparsifier import StreamingSparsifier, _check_execution, _Replay

        # Every rung below can quarantine or rewrite files, so a call that
        # is going to be refused must be refused first.
        _check_store_options(segment_bytes, keep_snapshots, snapshot_every)
        snapshot_every = None if snapshot_every is None else int(snapshot_every)
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
                # batch count must not be trusted.
                if counters.get("batches_ingested") != info.sequence:
                    raise CheckpointError("counters are damaged")
                candidate = StreamingSparsifier.from_stream_params(
                    snap_params, config=config, failure_policy=failure_policy
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
            stream = candidate
            snapshot_used = info.sequence
            break

        # Rung 2: one census of the journal's headers.  The first segment
        # whose header does not open (or runs out of order) and every
        # segment after it are quarantined; the rest pin the parameters.
        segments, damaged = _census(journal_dir, salvage=True)
        segments_quarantined = len(damaged)
        header_lost = 0
        for entry in damaged:
            header_lost += _record_lines(entry)
            _quarantine(io, entry)
            notes.append(f"quarantined segment {entry.name}: unreadable or out-of-order header")
        journal_params = segments[0].params if segments else None
        if stream is None:
            if journal_params is None:
                raise CheckpointError(
                    f"stream store {path} has nothing to recover: no valid "
                    "snapshot and no readable journal"
                )
            stream = StreamingSparsifier.from_stream_params(
                journal_params, config=config, failure_policy=failure_policy
            )
        elif journal_params is not None and journal_params != canonical_stream_params(
            stream._journal_params()
        ):
            # The journal claims different stream parameters than the
            # snapshot that restored — its batches cannot be replayed into
            # this state without diverging.  Quarantine it wholesale.
            for info in segments:
                header_lost += _record_lines(info.path)
                _quarantine(io, info.path)
            segments_quarantined += len(segments)
            segments = []
            notes.append(
                "journal parameters disagree with the restored snapshot; "
                "the journal was quarantined wholesale"
            )
        if snapshot_every is None and segments:
            snapshot_every = segments[-1].snapshot_every

        # Rung 3 + 4: replay the suffix, salvaging a valid prefix of the
        # first corrupt segment.
        scan = JournalScanReport()
        start_batch = stream._batches_ingested
        salvaged: List[BatchRecords] = []
        replay = _Replay()
        stream._replay = replay
        try:
            for _index, u, v, w, compactions in _replay_segments(
                journal_dir, segments, start_batch, scan, salvage=True
            ):
                replay.offer(compactions)
                stream.ingest(np.column_stack([u, v]), w)
            replay.settle()
        finally:
            stream._replay = None
        notes.extend(replay.notes)
        if scan.compactions_dropped:
            notes.append(
                f"{scan.compactions_dropped} journaled compaction record(s) failed "
                "verification and were not applied"
            )
        # A replay that ends clean but short of the restored state read a
        # journal the census cut off at a damaged header.
        short = bool(segments) and scan.next_batch < stream._batches_ingested
        if scan.corruption is not None or short:
            notes.append(
                f"journal corruption: {scan.corruption}"
                if scan.corruption is not None
                else f"the readable journal ends at batch {scan.next_batch}, "
                f"before the restored state's batch {stream._batches_ingested}"
            )
            # The corrupt segment and everything after it are no longer a
            # contiguous suffix — quarantine them, then rewrite the
            # salvaged prefix into a fresh segment below.  Damage inside
            # batches the restored snapshot already covers leaves no
            # journal that runs contiguously up to the restored state, so
            # then the whole journal is quarantined and restarts there.
            restart = scan.corrupt_batch is None or scan.corrupt_batch < stream._batches_ingested
            salvaged = [] if restart else scan.salvaged
            kept = [] if restart else list(takewhile(lambda s: s.path.name != scan.corrupt_segment, segments))
            for info in segments[len(kept) :]:
                _quarantine(io, info.path)
            segments_quarantined += len(segments) - len(kept)
            segments = kept

        # Re-attach a journal at the cursor the replay ended on (after a
        # quarantine, the end of the last segment that survived it).
        if segments:
            tail_bytes = (
                scan.tail_bytes if scan.corruption is None else segments[-1].path.stat().st_size
            )
            journal = StreamJournal._reopen(
                segments, tail_bytes, scan.next_batch - len(salvaged), segment_bytes, io
            )
            journal.set_snapshot_every(snapshot_every)
        else:
            journal = StreamJournal(
                journal_dir,
                canonical_stream_params(stream._journal_params()),
                segment_bytes=segment_bytes,
                start_index=stream._batches_ingested - len(salvaged),
                snapshot_every=snapshot_every,
                io=io,
            )
        for record, compactions in salvaged:
            for entry in (record, *compactions):
                journal.append_record(entry)
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
        stream._snapshot_every = snapshot_every

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
            compactions_reused=replay.reused,
            compactions_recomputed=replay.recomputed,
            bit_exact=scan.corruption is None and batches_lost == 0,
            notes=tuple(notes),
        )
        return stream, report
