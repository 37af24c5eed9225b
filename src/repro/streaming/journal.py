"""Persistence for edge streams: the segmented batch-ingest journal.

A stream that dies mid-ingest should resume *bit-exactly*: the
:class:`~repro.streaming.sparsifier.StreamingSparsifier` is deterministic
given its construction parameters and the exact batch sequence, so it is
enough to persist those two things.  :class:`StreamJournal` does exactly
that as the ``journal/`` half of a
:class:`~repro.streaming.store.StreamStateStore`, sharing the
:class:`~repro.core.checkpoint.DurableIO` write seam and the JSON-lines
reader with the batch checkpoint journal (:mod:`repro.core.checkpoint`):

* **A directory of sealed segments** — the journal is a directory of
  size-bounded JSON-lines segment files (``segment-00000000.jsonl`` …).
  Each segment opens with a header pinning the stream parameters and the
  index of its first batch, followed by one line per ingested batch with
  its exact edge arrays and a content digest.  When the active segment
  passes the size bound, the next append seals it and opens a new one
  (with a directory fsync, so the new file survives a crash).
* **Journal-then-process** — the sparsifier appends a batch *before*
  folding it into its state, so a crash at any point loses at most the
  batch whose append was itself torn; the torn trailing line is detected
  and dropped (and physically truncated on re-attach).
* **Bounded resume** — :meth:`iter_batches` streams batches back one
  segment at a time (memory bounded by one segment, not the journal),
  and a ``start_batch`` skips whole pre-snapshot segments by header so a
  snapshot-backed resume replays only the suffix.  After a snapshot,
  :meth:`truncate_before` deletes segments that are wholly covered.
* **Salvage, not all-or-nothing** — strict readers raise
  :class:`~repro.exceptions.CheckpointError` at the first invalid record;
  salvage readers (``salvage=True``) stop there instead, reporting what
  was replayed, what was lost and where the corruption sits in a
  :class:`JournalScanReport`, which is what the recovery ladder in
  :mod:`repro.streaming.store` builds its
  :class:`~repro.streaming.store.RecoveryReport` from.
* **Bit-exact round-trip** — weights survive JSON exactly (shortest
  round-trip float repr), and replaying the journaled batches through a
  fresh sparsifier reproduces the crashed stream's state bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import (
    DEFAULT_IO,
    DurableIO,
    _decode_record,
    _parse_segment,
    edge_array_digest,
)
from repro.exceptions import CheckpointError

__all__ = [
    "StreamJournal",
    "JournalScanReport",
    "SegmentInfo",
    "canonical_stream_params",
    "STREAM_JOURNAL_VERSION",
    "DEFAULT_SEGMENT_BYTES",
]

STREAM_JOURNAL_VERSION = 2

# Size bound after which the active segment is sealed and a new one
# opened.  Small enough that resume-after-snapshot touches little data,
# large enough that rotation is rare on real streams.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_QUARANTINE_SUFFIX = ".quarantined"

# Header keys that pin the stream's identity: a journal whose header
# disagrees on any of these belongs to a *different* stream and replaying
# it would produce a different (wrong) state.
_PINNED_KEYS = (
    "num_vertices",
    "t",
    "k",
    "sampling_probability",
    "seed",
    "auto_seeded",
    "window",
    "decay",
    "compaction_interval",
    "kout_presample",
    "levels",
    "level_capacity",
)

Batch = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


def canonical_stream_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize pinned stream parameters to their JSON round-trip form.

    The journal header is written with ``json.dumps`` and read back with
    ``json.loads``, so any value a caller supplies must be compared in
    that normal form: numpy scalars collapse to Python ints/floats, and
    floats go through the same shortest-repr round trip the journal
    performs on disk.  Without this, a ``sampling_probability`` passed as
    ``np.float32``/``np.float64`` can spuriously mismatch the header of
    the very journal it wrote.
    """
    canon: Dict[str, Any] = {}
    for key in _PINNED_KEYS:
        value = params.get(key)
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float):
            value = json.loads(json.dumps(value))
        canon[key] = value
    # Seed provenance: journals written before the flag existed simply
    # lack it, which canonicalises to False (an explicit seed).
    canon["auto_seeded"] = bool(canon["auto_seeded"] or False)
    return canon


@dataclass(frozen=True)
class SegmentInfo:
    """Header-level description of one journal segment."""

    path: Path
    sequence: int
    first_batch: int


@dataclass
class JournalScanReport:
    """Read accounting + salvage outcome of one journal iteration.

    ``segments_skipped`` / ``batches_skipped`` count data *not* read
    because a snapshot already covers it (the bounded-resume guarantee is
    asserted through these numbers); ``batches_lost`` counts journaled
    batch records that could not be applied because they sit behind a
    corruption point; ``salvaged`` holds the valid batches of the corrupt
    segment's prefix so the recovery ladder can rewrite them into a fresh
    segment after quarantining the damaged file; ``corrupt_batch`` is the
    index of the first batch the journal could not supply.
    """

    segments_seen: int = 0
    segments_replayed: int = 0
    segments_skipped: int = 0
    batches_replayed: int = 0
    batches_skipped: int = 0
    batches_lost: int = 0
    torn_tail_dropped: bool = False
    corrupt_segment: Optional[str] = None
    corrupt_batch: Optional[int] = None
    corruption: Optional[str] = None
    salvaged: List[Batch] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no mid-journal corruption was encountered."""
        return self.corrupt_segment is None


def _segment_name(sequence: int) -> str:
    return f"{_SEGMENT_PREFIX}{sequence:08d}{_SEGMENT_SUFFIX}"


def _segment_sequence(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _segment_files(path: Path) -> List[Path]:
    """Live (non-quarantined) segment files, in sequence order."""
    if not path.is_dir():
        return []
    return sorted(
        entry
        for entry in path.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
        if entry.is_file()
    )


def _record_lines(path: Path) -> int:
    """Best-effort count of the records after a segment's header, damaged ones included."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0
    return max(0, sum(1 for line in data.split(b"\n") if line.strip()) - 1)


def _validate_header(record: Optional[Dict[str, Any]], path: Path) -> Dict[str, Any]:
    if record is None or record.get("kind") != "header":
        raise CheckpointError(
            f"stream journal segment {path} has no header line; "
            "refusing to resume from an unrecognized file"
        )
    if record.get("version") != STREAM_JOURNAL_VERSION:
        raise CheckpointError(
            f"stream journal segment {path} has version {record.get('version')}, "
            f"expected {STREAM_JOURNAL_VERSION}"
        )
    missing = [key for key in _PINNED_KEYS if key not in record]
    if missing:
        raise CheckpointError(
            f"stream journal segment {path} header is missing keys: "
            f"{', '.join(missing)}"
        )
    if not isinstance(record.get("first_batch"), int):
        raise CheckpointError(
            f"stream journal segment {path} header has no integer first_batch"
        )
    return record


def _batch_from_record(
    record: Dict[str, Any], num_vertices: int, expected_index: int, path: Path
) -> Batch:
    if record.get("kind") != "batch":
        raise CheckpointError(
            f"stream journal segment {path}: the record where batch "
            f"{expected_index} was expected is not a batch record"
        )
    try:
        index = int(record["index"])
        u = np.asarray(record["u"], dtype=np.int64)
        v = np.asarray(record["v"], dtype=np.int64)
        w = np.asarray(record["w"], dtype=np.float64)
        digest = record["digest"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"stream journal segment {path}: malformed batch record where batch "
            f"{expected_index} was expected ({exc!r})"
        ) from exc
    if index != expected_index:
        raise CheckpointError(
            f"stream journal segment {path} records batch {index} where batch "
            f"{expected_index} was expected — the journal is not an "
            "uninterrupted prefix of one stream"
        )
    if digest != edge_array_digest(num_vertices, u, v, w):
        raise CheckpointError(
            f"stream journal segment {path}: batch {index} does not match its "
            "recorded digest — refusing to replay corrupted edges"
        )
    return index, u, v, w


class StreamJournal:
    """Append-only journal of ingested stream batches, as sealed segments."""

    def __init__(
        self,
        path: Union[str, Path],
        params: Dict[str, Any],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_index: int = 0,
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        missing = [key for key in _PINNED_KEYS if key not in params]
        if missing:
            raise CheckpointError(
                f"stream journal header is missing pinned keys: {', '.join(missing)}"
            )
        if segment_bytes < 1:
            raise CheckpointError(
                f"segment_bytes must be >= 1, got {segment_bytes}"
            )
        self._params = canonical_stream_params(params)
        self._segment_bytes = int(segment_bytes)
        self._io = io if io is not None else DEFAULT_IO
        if self.has_content(self.path):
            raise CheckpointError(
                f"stream journal {self.path} already has content; use "
                "StreamingSparsifier.recover() to continue it or pass a "
                "fresh path"
            )
        # Append cursor.  ``start_index`` > 0 starts a fresh journal midway
        # through a stream (recovery after total journal loss with a valid
        # snapshot): every batch before it lives only in the snapshot.
        self._active: Optional[Path] = None
        self._active_size = 0
        self._next_sequence = 0
        self._next_index = int(start_index)

    # ------------------------------------------------------------------ #
    # Construction / attachment
    # ------------------------------------------------------------------ #

    @staticmethod
    def has_content(path: Union[str, Path]) -> bool:
        """True when ``path`` holds at least one non-empty segment."""
        return any(entry.stat().st_size > 0 for entry in _segment_files(Path(path)))

    @classmethod
    def attach(
        cls,
        path: Union[str, Path],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        io: Optional[DurableIO] = None,
    ) -> "StreamJournal":
        """Re-open an existing journal for appending.

        Reads the header parameters, positions the append cursor after the
        last valid batch, and physically truncates a torn trailing append
        so future appends cannot merge into the torn fragment.  Raises
        :class:`CheckpointError` on structural corruption (use the
        recovery ladder in :mod:`repro.streaming.store` to salvage).
        """
        path = Path(path)
        infos = cls.scan_segments(path)
        if not infos:
            raise CheckpointError(f"stream journal {path} is missing or empty")
        params = cls.read_params(path)
        journal = cls.__new__(cls)
        journal.path = path
        journal._params = params
        journal._segment_bytes = int(segment_bytes)
        journal._io = io if io is not None else DEFAULT_IO
        last = infos[-1]
        # A crash during rotation can leave a trailing segment file whose
        # header never made it to disk; it holds no applied batches and
        # would poison future scans once it is no longer the last file.
        for stray in _segment_files(path):
            if stray.name > last.path.name:
                journal._io.remove(stray)
        records, valid_end, status = _parse_segment(last.path)
        if status == "interior":
            raise CheckpointError(
                f"stream journal segment {last.path} is corrupt mid-journal; "
                "use StreamingSparsifier.recover() to salvage the valid prefix"
            )
        if status == "torn":
            # Physically drop the torn append so future appends cannot
            # merge into the fragment and corrupt the journal mid-file.
            journal._io.truncate(last.path, valid_end)
        batch_records = [r for r in records if r.get("kind") == "batch"]
        journal._active = last.path
        journal._active_size = valid_end
        journal._next_sequence = last.sequence + 1
        journal._next_index = last.first_batch + len(batch_records)
        return journal

    @property
    def params(self) -> Dict[str, Any]:
        return dict(self._params)

    @property
    def next_index(self) -> int:
        """Index the next appended batch must carry."""
        return self._next_index

    def matches(self, params: Dict[str, Any]) -> bool:
        """True when ``params`` pins the same stream as this journal.

        Both sides are normalized through the same JSON float round trip
        the on-disk header goes through, so numpy scalar types or float
        repr quirks cannot cause a spurious mismatch.
        """
        candidate = canonical_stream_params(params)
        return all(self._params[key] == candidate[key] for key in _PINNED_KEYS)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _header_line(self, first_batch: int, sequence: int) -> str:
        return json.dumps(
            {
                "kind": "header",
                "version": STREAM_JOURNAL_VERSION,
                "segment": int(sequence),
                "first_batch": int(first_batch),
                **self._params,
            }
        )

    def append_batch(
        self, index: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> None:
        """Append one ingested batch, rotating to a new segment when full."""
        if int(index) != self._next_index:
            raise CheckpointError(
                f"stream journal {self.path} expected batch {self._next_index}, "
                f"got {index} — appends must be contiguous"
            )
        line = json.dumps(
            {
                "kind": "batch",
                "index": int(index),
                "u": np.asarray(u, dtype=np.int64).tolist(),
                "v": np.asarray(v, dtype=np.int64).tolist(),
                "w": np.asarray(w, dtype=np.float64).tolist(),
                "digest": edge_array_digest(self._params["num_vertices"], u, v, w),
            }
        )
        if self._active is None:
            self._io.mkdir(self.path)
        if self._active is None or self._active_size >= self._segment_bytes:
            # Seal the active segment and open the next one.  The header
            # is fsync'd, then the *directory* is fsync'd: without the
            # second step a crash here can lose the new file entirely.
            sequence = self._next_sequence
            segment = self.path / _segment_name(sequence)
            self._next_sequence = sequence + 1
            self._active = segment
            self._active_size = 0
        if self._active_size == 0:
            header = self._header_line(first_batch=index, sequence=_segment_sequence(self._active))
            self._io.append_line(self._active, header + "\n")
            self._io.fsync_dir(self.path)
            self._active_size = len(header) + 1
        self._io.append_line(self._active, line + "\n")
        self._active_size += len(line) + 1
        self._next_index += 1

    def truncate_before(self, batch_index: int) -> List[str]:
        """Delete sealed segments whose batches all precede ``batch_index``.

        Called after a durable snapshot covering batches ``< batch_index``:
        replay will never need those segments again.  A segment is deleted
        only when the *next* segment's header proves the whole range is
        covered, so the active segment (and any boundary segment) always
        survives.  Returns the deleted segment names.
        """
        infos = self.scan_segments(self.path)
        deleted: List[str] = []
        for info, successor in zip(infos[:-1], infos[1:]):
            if successor.first_batch <= batch_index:
                self._io.remove(info.path)
                deleted.append(info.path.name)
        if deleted:
            self._io.fsync_dir(self.path)
        return deleted

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @staticmethod
    def scan_segments(path: Union[str, Path]) -> List[SegmentInfo]:
        """Read every segment's *header only*: cheap structural census.

        An undecodable header is tolerated only on the final segment (a
        crash during rotation leaves a torn header there); anywhere else
        it is corruption and raises.  Empty trailing files are skipped.
        """
        path = Path(path)
        files = _segment_files(path)
        infos: List[SegmentInfo] = []
        for position, entry in enumerate(files):
            last = position == len(files) - 1
            header: Optional[Dict[str, Any]] = None
            with open(entry, "rb") as handle:
                first_line = handle.readline()
            if first_line.endswith(b"\n") and first_line.strip():
                header = _decode_record(first_line)
            if header is None:
                if last:
                    continue  # torn rotation: the tail segment never got a header
                raise CheckpointError(
                    f"stream journal segment {entry} has a corrupt header line"
                )
            _validate_header(header, entry)
            infos.append(
                SegmentInfo(
                    path=entry,
                    sequence=_segment_sequence(entry),
                    first_batch=int(header["first_batch"]),
                )
            )
        for info, successor in zip(infos[:-1], infos[1:]):
            if successor.first_batch < info.first_batch:
                raise CheckpointError(
                    f"stream journal {path}: segment {successor.path.name} starts at "
                    f"batch {successor.first_batch}, before its predecessor's "
                    f"{info.first_batch}"
                )
        return infos

    @staticmethod
    def read_params(path: Union[str, Path]) -> Dict[str, Any]:
        """The pinned stream parameters from the first segment's header."""
        infos = StreamJournal.scan_segments(path)
        if not infos:
            raise CheckpointError(f"stream journal {path} is missing or empty")
        with open(infos[0].path, "rb") as handle:
            header = _decode_record(handle.readline())
        return canonical_stream_params(_validate_header(header, infos[0].path))

    @staticmethod
    def iter_batches(
        path: Union[str, Path],
        *,
        start_batch: int = 0,
        report: Optional[JournalScanReport] = None,
        salvage: bool = False,
    ) -> Iterator[Batch]:
        """Stream journaled batches back, one segment in memory at a time.

        ``start_batch`` skips batches a snapshot already covers: segments
        that end before it are skipped *by header* (their bodies are never
        read — the accounting in ``report`` proves bounded resume).  In
        strict mode (default) any invalid record besides a torn trailing
        append raises :class:`CheckpointError`; with ``salvage=True``
        iteration stops at the corruption instead, and ``report`` records
        the corrupt segment, the salvageable prefix of its batches, and a
        best-effort count of batches lost behind the damage.
        """
        path = Path(path)
        if report is None:
            report = JournalScanReport()
        infos = StreamJournal.scan_segments(path)
        if not infos:
            return
        params = StreamJournal.read_params(path)
        num_vertices = int(params["num_vertices"])
        report.segments_seen = len(infos)

        # Segments wholly covered by the snapshot: skip without reading.
        first_replayed = 0
        for position, info in enumerate(infos):
            is_last = position == len(infos) - 1
            end = None if is_last else infos[position + 1].first_batch
            if end is not None and end <= start_batch:
                report.segments_skipped += 1
                report.batches_skipped += end - info.first_batch
                first_replayed = position + 1

        if first_replayed < len(infos) and infos[first_replayed].first_batch > start_batch:
            # The journal's retained range begins after the caller's state:
            # replaying it would skip batches and silently diverge.
            message = (
                f"journal resumes at batch {infos[first_replayed].first_batch} but "
                f"replay was requested from batch {start_batch} — the covering "
                "segments are gone"
            )
            if salvage:
                report.corrupt_segment = infos[first_replayed].path.name
                report.corrupt_batch = start_batch
                report.corruption = message
                report.batches_lost += _count_remaining_batches(infos[first_replayed:])
                return
            raise CheckpointError(f"stream journal {path}: {message}")
        expected = (
            infos[first_replayed].first_batch if first_replayed < len(infos) else start_batch
        )
        for position in range(first_replayed, len(infos)):
            info = infos[position]
            is_last = position == len(infos) - 1
            failure: Optional[str] = None
            segment_batches: List[Batch] = []
            records: List[Dict[str, Any]] = []
            if info.first_batch != expected:
                failure = (
                    f"segment {info.path.name} starts at batch {info.first_batch} "
                    f"where batch {expected} was expected — batches in between "
                    "are missing"
                )
            else:
                records, _, status = _parse_segment(info.path)
                report.segments_replayed += 1
                for record in records[1:]:  # records[0] is the header
                    try:
                        batch = _batch_from_record(record, num_vertices, expected, info.path)
                    except CheckpointError as exc:
                        failure = str(exc)
                        break
                    expected += 1
                    # Keep even pre-start_batch batches: salvage rewrites
                    # the full valid prefix of a corrupt segment, which
                    # must stay contiguous with the preceding segment.
                    segment_batches.append(batch)
                if failure is None:
                    if status == "interior" or (status == "torn" and not is_last):
                        failure = (
                            f"segment {info.path.name} is corrupt mid-journal "
                            "(not a torn trailing append)"
                        )
                    elif status == "torn":
                        report.torn_tail_dropped = True
            if failure is not None:
                if not salvage:
                    raise CheckpointError(f"stream journal {path}: {failure}")
                report.corrupt_segment = info.path.name
                report.corrupt_batch = expected
                report.corruption = failure
                report.salvaged = segment_batches
                processed = expected - info.first_batch if records else 0
                report.batches_lost += max(0, _record_lines(info.path) - processed)
                report.batches_lost += _count_remaining_batches(infos[position + 1 :])
                for batch in segment_batches:
                    if batch[0] < start_batch:
                        report.batches_skipped += 1
                        continue
                    report.batches_replayed += 1
                    yield batch
                return
            for batch in segment_batches:
                if batch[0] < start_batch:
                    report.batches_skipped += 1
                    continue
                report.batches_replayed += 1
                yield batch


def _count_remaining_batches(infos: List[SegmentInfo]) -> int:
    """Best-effort count of batch records in segments behind a corruption."""
    return sum(_record_lines(info.path) for info in infos)
