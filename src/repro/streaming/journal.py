"""Persistence for edge streams: the segmented batch-ingest journal.

A stream that dies mid-ingest should resume *bit-exactly*: the
:class:`~repro.streaming.sparsifier.StreamingSparsifier` is deterministic
given its construction parameters and the exact batch sequence, so it is
enough to persist those two things.  :class:`StreamJournal` does exactly
that as the ``journal/`` half of a
:class:`~repro.streaming.store.StreamStateStore`, built on the
:class:`~repro.core.checkpoint.DurableIO` write seam, the sealed-record
codec and the JSON-lines reader of :mod:`repro.core.checkpoint`:

* **A directory of segments** — the journal is a directory of
  size-bounded JSON-lines segment files (``segment-00000000.jsonl`` …).
  Each segment opens with a header pinning the stream parameters (vertex
  count, ``t``, ``k``, sampling probability, seed and its provenance,
  ``window`` and compaction interval), the snapshot cadence and the index
  of its first batch, followed by one line per ingested batch with its
  exact edge arrays.  When the active segment passes the size bound, the
  next batch append closes it and opens a new one (with a directory
  fsync, so the new file survives a crash).  A header or snapshot
  manifest an older version wrote with an option this version no longer
  has (more than one retained level, a k-out presample or a weight
  decay) is refused by name, never replayed as a different stream.
* **Sealed records (format v4)** — every line, header included, is a
  :func:`~repro.core.checkpoint.seal` record whose last key is a digest
  of the bytes before it, so a damaged byte anywhere reads as a record
  that is not there, never as a different parameter or edge.
* **Compaction records** — each compaction a batch triggers appends the
  outcome of that ``PARALLELSAMPLE`` pass right after the batch: its
  bundle and kept positions as bitmasks over its working set and a
  digest of that working set.  Replay applies a record only to a working
  set with the recorded digest, so recovery skips the spanner work it
  verifies and recomputes every compaction whose record is missing,
  damaged or mismatched.
* **Binary payloads** — every array travels as base64 text of its
  little-endian bytes, not as a JSON number list: bit-exact by
  construction and no per-element encode or decode.
* **Journal-then-process** — the sparsifier appends a batch *before*
  folding it into its state, so a crash at any point loses at most the
  batch whose append was itself torn; the torn trailing line is detected
  and dropped (and physically truncated on re-attach).
* **One reader, one pass** — the recovery ladder in
  :mod:`repro.streaming.store` is the only reader.  Its census reads each
  segment's header once; its replay then parses each replayed segment
  once, one segment in memory at a time, skipping pre-snapshot segments
  by header, and decodes payloads only for the batches it replays:
  records a snapshot already covers are verified by their seal, never
  decoded.  After a snapshot, :meth:`StreamJournal.truncate_before`
  deletes segments that are wholly covered.
* **Salvage, not all-or-nothing** — the reader stops at the first
  invalid record, reporting what was replayed, what was lost and where
  the corruption sits in a :class:`JournalScanReport`, which the ladder
  builds its :class:`~repro.streaming.store.RecoveryReport` from and
  uses to quarantine what it cannot replay.  A compaction record is
  advisory: one that fails its seal is dropped, not treated as
  corruption, because replay can recompute it.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import DEFAULT_IO, DurableIO, _parse_segment, open_record, seal
from repro.exceptions import CheckpointError, StreamingError
from repro.utils.validation import check_count

__all__ = [
    "StreamJournal",
    "JournalScanReport",
    "SegmentInfo",
    "canonical_stream_params",
    "working_set_digest",
    "STREAM_JOURNAL_VERSION",
    "DEFAULT_SEGMENT_BYTES",
]

STREAM_JOURNAL_VERSION = 4

# Size bound after which the active segment is closed and a new one
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
    "compaction_interval",
)

# Options older versions pinned, each with the one value that replays as
# this version's stream: one retained level, no k-out presample, no decay.
# (Their ``level_capacity`` only sized levels past the first, so any value
# replays.)
_DELETED_OPTIONS = {"levels": 1, "kout_presample": None, "decay": None}

# Every compaction record line starts with these bytes (``json.dumps``
# keeps key order), which is how a reader tells a damaged compaction
# record, which replay recomputes, from a damaged batch record.
_COMPACTION_PREFIX = b'{"kind": "compaction"'

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")
_BYTE = np.dtype("u1")

# ``(index, u, v, w, compactions)``: a journaled batch and the decoded
# outcomes of the compactions it triggered, in journal order.
Batch = Tuple[int, np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]

# ``(batch record, compaction records)``: a batch as its journal lines
# unsealed them, payloads not decoded.
BatchRecords = Tuple[Dict[str, Any], List[Dict[str, Any]]]


def _pack(array: np.ndarray, dtype: np.dtype) -> str:
    """``array`` as base64 text of its little-endian bytes: one binary payload."""
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype).tobytes()).decode("ascii")


def _unpack(text: Any, dtype: np.dtype) -> np.ndarray:
    """The array :func:`_pack` wrote, in native byte order; ``ValueError`` otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"payload is {type(text).__name__}, not base64 text")
    raw = base64.b64decode(text, validate=True)
    if len(raw) % dtype.itemsize:
        raise ValueError(f"a {len(raw)}-byte payload is not a whole number of {dtype} items")
    return np.frombuffer(raw, dtype=dtype).astype(dtype.newbyteorder("="))


def _pack_positions(positions: np.ndarray, size: int) -> str:
    """Ascending positions among ``size`` items as a base64 bitmask."""
    mask = np.zeros(size, dtype=bool)
    mask[positions] = True
    return _pack(np.packbits(mask), _BYTE)


def _unpack_positions(text: Any, size: int) -> np.ndarray:
    """The ascending positions a :func:`_pack_positions` bitmask holds."""
    bits = _unpack(text, _BYTE)
    if bits.shape[0] != (size + 7) // 8:
        raise ValueError(f"a {bits.shape[0]}-byte bitmask does not cover {size} positions")
    return np.flatnonzero(np.unpackbits(bits, count=size))


def working_set_digest(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, b: np.ndarray
) -> str:
    """Content hash of the working set one compaction ran on.

    ``w`` holds the weights the selection saw and ``b`` the arrival
    batches.  A journaled compaction outcome is applied only to a working
    set with the digest it records.
    """
    digest = hashlib.blake2b(digest_size=16)
    for array, dtype in ((u, _INT), (v, _INT), (w, _FLOAT), (b, _INT)):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def _refuse_deleted_options(params: Mapping[str, Any]) -> None:
    """Raise :class:`StreamingError` naming the first deleted option ``params`` sets.

    A store an older version wrote with such an option is intact, so this
    is not damage: recovery must stop before it quarantines anything.
    """
    for key, unset in _DELETED_OPTIONS.items():
        if params.get(key, unset) != unset:
            raise StreamingError(
                f"the stream pins {key}={params[key]!r}, an option this version does not "
                "have; recover it with the version that wrote it"
            )


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
    """Header-level description of one journal segment.

    ``params`` are the pinned stream parameters its header records, in
    :func:`canonical_stream_params` form.
    """

    path: Path
    sequence: int
    first_batch: int
    snapshot_every: Optional[int]
    params: Dict[str, Any] = field(compare=False)


@dataclass
class JournalScanReport:
    """Read accounting + salvage outcome of one recovery replay.

    ``segments_skipped`` / ``batches_skipped`` count data *not* read
    because a snapshot already covers it (the bounded-resume guarantee is
    asserted through these numbers); ``batches_lost`` counts journaled
    batch records that could not be applied because they sit behind a
    corruption point; ``salvaged`` holds the valid batches of the corrupt
    segment's prefix, as their verified records, so the recovery ladder
    can rewrite them into a fresh segment after quarantining the damaged
    file; ``corrupt_batch`` is the index of the first batch the journal
    could not supply.  ``compactions_dropped`` counts compaction records
    that failed their seal or did not decode: replay recomputes those
    compactions.  ``next_batch`` (the index after the last valid batch
    read) and ``tail_bytes`` (the byte offset past the last valid line of
    the last segment parsed) are the cursor a re-attached journal
    appends at.
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
    compactions_dropped: int = 0
    salvaged: List[BatchRecords] = field(default_factory=list)
    next_batch: int = 0
    tail_bytes: int = 0


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
    """Best-effort count of the batch records after a segment's header, damaged ones included."""
    try:
        data = path.read_bytes()
    except OSError:
        return 0
    lines = [line for line in data.split(b"\n") if line.strip()]
    return sum(1 for line in lines[1:] if not line.startswith(_COMPACTION_PREFIX))


def _segment_info(entry: Path, line: bytes) -> SegmentInfo:
    """The census entry of segment ``entry``, whose header line is ``line``."""
    source = f"stream journal segment {entry}"
    header = open_record(line, "header", STREAM_JOURNAL_VERSION, source)
    missing = [key for key in (*_PINNED_KEYS, "snapshot_every") if key not in header]
    if missing:
        raise CheckpointError(f"{source} header is missing keys: {', '.join(missing)}")
    if not isinstance(header.get("first_batch"), int):
        raise CheckpointError(f"{source} header has no integer first_batch")
    if header["snapshot_every"] is not None:
        check_count(header["snapshot_every"], f"{source} snapshot_every", CheckpointError)
    _refuse_deleted_options(header)
    return SegmentInfo(
        path=entry,
        sequence=_segment_sequence(entry),
        first_batch=header["first_batch"],
        snapshot_every=header["snapshot_every"],
        params=canonical_stream_params(header),
    )


def _censused(line: bytes) -> None:
    """The header check of a replayed segment: the census already opened its header."""


def _census(path: Path) -> Tuple[List[SegmentInfo], List[Path], Optional[str]]:
    """Read each live segment's header once: ``(readable segments, damaged rest, reason)``.

    A header that fails to open, that never got its newline (a torn
    rotation), or that starts before its predecessor's is damage: that
    segment and every one after it come back for quarantine, and
    ``reason`` says why the first of them failed (``None`` when no header
    is damaged).
    """
    files = _segment_files(path)
    infos: List[SegmentInfo] = []
    for position, entry in enumerate(files):
        with open(entry, "rb") as handle:
            line = handle.readline()
        try:
            if not line.endswith(b"\n"):
                raise CheckpointError(f"stream journal segment {entry} has a torn header line")
            info = _segment_info(entry, line[:-1])
            if infos and info.first_batch < infos[-1].first_batch:
                raise CheckpointError(
                    f"stream journal {path}: segment {entry.name} starts at batch "
                    f"{info.first_batch}, before its predecessor's {infos[-1].first_batch}"
                )
        except CheckpointError as exc:
            return infos, files[position:], str(exc)
        infos.append(info)
    return infos, [], None


def _decode_batch(record: Dict[str, Any], compactions: List[Dict[str, Any]]) -> Batch:
    """A verified batch record's arrays and the outcomes of its compaction records that decode.

    Raises ``KeyError`` or ``ValueError`` when the batch payloads do not decode.
    """
    u = _unpack(record["u"], _INT)
    v = _unpack(record["v"], _INT)
    w = _unpack(record["w"], _FLOAT)
    if not u.shape == v.shape == w.shape:
        raise ValueError("the u, v and w payloads differ in length")
    outcomes = [outcome for outcome in map(_compaction_outcome, compactions) if outcome]
    return int(record["index"]), u, v, w, outcomes


def _compaction_outcome(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """A compaction record's outcome, or ``None`` when its payloads do not decode.

    The outcome has the keys of the compaction worker's result plus the
    ``index``, ``size`` and ``work_digest`` replay matches it by.
    """
    try:
        size = int(record["size"])
        return {
            "index": int(record["index"]),
            "size": size,
            "work_digest": str(record["work_digest"]),
            "bundle": _unpack_positions(record["bundle"], size),
            "kept": _unpack_positions(record["kept"], size),
            "outside": int(record["outside"]),
            "built": int(record["built"]),
            "exhausted": bool(record["exhausted"]),
        }
    except (KeyError, TypeError, ValueError):
        return None


class StreamJournal:
    """Append-only journal of ingested stream batches, as segment files of sealed records."""

    def __init__(
        self,
        path: Union[str, Path],
        params: Dict[str, Any],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_index: int = 0,
        snapshot_every: Optional[int] = None,
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        missing = [key for key in _PINNED_KEYS if key not in params]
        if missing:
            raise CheckpointError(
                f"stream journal header is missing pinned keys: {', '.join(missing)}"
            )
        self._params = canonical_stream_params(params)
        self._segment_bytes = check_count(segment_bytes, "segment_bytes", CheckpointError)
        self._snapshot_every = (
            None
            if snapshot_every is None
            else check_count(snapshot_every, "snapshot_every", CheckpointError)
        )
        self._close_active = False
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
    def _reopen(
        cls,
        infos: List[SegmentInfo],
        tail_bytes: int,
        next_index: int,
        segment_bytes: int,
        io: Optional[DurableIO],
    ) -> "StreamJournal":
        """A journal appending to ``infos[-1]`` at byte ``tail_bytes``, next batch ``next_index``.

        Cuts the tail segment back to ``tail_bytes``, physically dropping a
        torn trailing append so future appends cannot merge into the
        fragment and corrupt the journal mid-file.  ``infos`` must be every
        live segment: recovery quarantines the rest before re-attaching.
        """
        last = infos[-1]
        journal = cls.__new__(cls)
        journal.path = last.path.parent
        journal._params = infos[0].params
        journal._segment_bytes = check_count(segment_bytes, "segment_bytes", CheckpointError)
        journal._io = io if io is not None else DEFAULT_IO
        journal._snapshot_every = last.snapshot_every
        journal._close_active = False
        if last.path.stat().st_size > tail_bytes:
            journal._io.truncate(last.path, tail_bytes)
        journal._active = last.path
        journal._active_size = tail_bytes
        journal._next_sequence = last.sequence + 1
        journal._next_index = next_index
        return journal

    @property
    def next_index(self) -> int:
        """Index the next appended batch must carry."""
        return self._next_index

    def set_snapshot_every(self, snapshot_every: Optional[int]) -> None:
        """Record the snapshot cadence in force from the next segment header on.

        Recovery reads the cadence off the newest segment header, so a
        changed cadence closes the active segment: the next batch opens a
        segment whose header records it.
        """
        if snapshot_every != self._snapshot_every:
            self._snapshot_every = snapshot_every
            self._close_active = self._active is not None

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append_batch(
        self, index: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> None:
        """Append one ingested batch, rotating to a new segment when full."""
        self.append_record(
            {
                "kind": "batch",
                "index": int(index),
                "u": _pack(u, _INT),
                "v": _pack(v, _INT),
                "w": _pack(w, _FLOAT),
            }
        )

    def append_compaction(
        self, index: int, size: int, work_digest: str, outcome: Mapping[str, Any]
    ) -> None:
        """Append the outcome of compaction ``index`` after the batch that triggered it.

        ``outcome`` holds the compaction worker's ``bundle`` and ``kept``
        positions among the ``size`` working-set edges and its
        ``outside``, ``built`` and ``exhausted`` results; ``work_digest``
        is the :func:`working_set_digest` of that working set.  The record
        never opens a segment: it stays with its batch.
        """
        self.append_record(
            {
                "kind": "compaction",
                "index": int(index),
                "size": int(size),
                "work_digest": work_digest,
                "outside": int(outcome["outside"]),
                "built": int(outcome["built"]),
                "exhausted": bool(outcome["exhausted"]),
                "bundle": _pack_positions(outcome["bundle"], size),
                "kept": _pack_positions(outcome["kept"], size),
            }
        )

    def append_record(self, record: Mapping[str, Any]) -> None:
        """Seal and append one batch or compaction record.

        A batch record must carry the next batch index, and it opens a new
        segment when the active one is full.  :meth:`append_batch` and
        :meth:`append_compaction` build the records; the recovery ladder
        hands back the verified records of a salvaged prefix.
        """
        line = seal(record) + "\n"
        batch = record["kind"] == "batch"
        if batch:
            if record["index"] != self._next_index:
                raise CheckpointError(
                    f"stream journal {self.path} expected batch {self._next_index}, "
                    f"got {record['index']} — appends must be contiguous"
                )
            if self._active is None:
                self._io.mkdir(self.path)
            if self._active is None or self._close_active or self._active_size >= self._segment_bytes:
                # Close the active segment and open the next one.  The
                # header is fsync'd, then the *directory* is fsync'd:
                # without the second step a crash here can lose the new
                # file entirely.
                self._active = self.path / _segment_name(self._next_sequence)
                self._next_sequence += 1
                self._active_size = 0
                self._close_active = False
            if self._active_size == 0:
                header = seal(
                    {
                        "kind": "header",
                        "version": STREAM_JOURNAL_VERSION,
                        "segment": _segment_sequence(self._active),
                        "first_batch": int(record["index"]),
                        **self._params,
                        "snapshot_every": self._snapshot_every,
                    }
                ) + "\n"
                self._io.append_line(self._active, header)
                self._io.fsync_dir(self.path)
                self._active_size = len(header)
        self._io.append_line(self._active, line)
        self._active_size += len(line)
        if batch:
            self._next_index += 1

    def truncate_before(self, batch_index: int) -> List[str]:
        """Delete closed segments whose batches all precede ``batch_index``.

        Called after a durable snapshot covering batches ``< batch_index``:
        replay will never need those segments again.  A segment is deleted
        only when the *next* segment's header proves the whole range is
        covered, so the active segment (and any boundary segment) always
        survives.  Returns the deleted segment names.  Raises
        :class:`CheckpointError` when a live segment's header is damaged
        (recovery quarantines such a segment).
        """
        infos, damaged, reason = _census(self.path)
        if damaged:
            raise CheckpointError(f"cannot truncate stream journal {self.path}: {reason}")
        deleted: List[str] = []
        for info, successor in zip(infos[:-1], infos[1:]):
            if successor.first_batch <= batch_index:
                self._io.remove(info.path)
                deleted.append(info.path.name)
        if deleted:
            self._io.fsync_dir(self.path)
        return deleted


def _replay_segments(
    infos: List[SegmentInfo],
    start_batch: int,
    report: JournalScanReport,
) -> Iterator[Batch]:
    """Replay the journaled batches from ``start_batch`` on, over the census ``infos``.

    Each batch comes as ``(index, u, v, w, compactions)``, where
    ``compactions`` lists the decoded outcomes of the compaction records
    that follow it (see :meth:`StreamJournal.append_compaction`); a record
    that fails its seal or does not decode is left out and counted in
    ``report.compactions_dropped``.  Segments that end before
    ``start_batch`` are skipped *by header* (their bodies are never read
    — the accounting in ``report`` proves bounded resume), and covered
    records of the segments that are read are verified by their seal but
    never decoded.  Replay stops at the first damaged or missing batch:
    ``report`` records the corrupt segment, the salvageable prefix of its
    batches, and a best-effort count of batches lost behind the damage.
    """
    report.segments_seen = len(infos)
    if not infos:
        return

    # Segments wholly covered by the snapshot: skip without reading.
    first_replayed = 0
    for position, (info, successor) in enumerate(zip(infos, infos[1:])):
        if successor.first_batch <= start_batch:
            report.segments_skipped += 1
            report.batches_skipped += successor.first_batch - info.first_batch
            first_replayed = position + 1

    expected = infos[first_replayed].first_batch
    if expected > start_batch:
        # The journal's retained range begins after the caller's state:
        # replaying it would skip batches and silently diverge.
        report.corrupt_segment = infos[first_replayed].path.name
        report.corrupt_batch = start_batch
        report.corruption = (
            f"journal resumes at batch {expected} but replay was requested "
            f"from batch {start_batch} — the covering segments are gone"
        )
        report.batches_lost += _count_remaining_batches(infos[first_replayed:])
        return
    for position in range(first_replayed, len(infos)):
        info = infos[position]
        failure: Optional[str] = None
        journaled: List[BatchRecords] = []
        if info.first_batch != expected:
            failure = (
                f"segment {info.path.name} starts at batch {info.first_batch} "
                f"where batch {expected} was expected — batches in between "
                "are missing"
            )
        else:
            records, valid_end, status = _parse_segment(info.path, _censused, _COMPACTION_PREFIX)
            report.segments_replayed += 1
            report.tail_bytes = valid_end
            for record in records:
                if not record or record.get("kind") == "compaction":
                    # The outcome of a compaction the batch before it
                    # triggered; replay recomputes one that fails its seal.
                    if record and journaled:
                        journaled[-1][1].append(record)
                    else:
                        report.compactions_dropped += 1
                    continue
                if record.get("kind") != "batch" or record.get("index") != expected:
                    failure = (
                        f"segment {info.path.name} holds a {record.get('kind')} record "
                        f"{record.get('index')} where batch {expected} was expected — "
                        "the journal is not an uninterrupted prefix of one stream"
                    )
                    break
                journaled.append((record, []))
                expected += 1
            if failure is None and status == "torn" and position == len(infos) - 1:
                report.torn_tail_dropped = True
            elif failure is None and status != "clean":
                failure = (
                    f"segment {info.path.name} is corrupt mid-journal at byte "
                    f"{valid_end}: a line that does not match its digest, not a "
                    "torn trailing append"
                )
        batches: List[Batch] = []
        for count, (record, compactions) in enumerate(journaled):
            if record["index"] < start_batch:
                report.batches_skipped += 1
                continue
            try:
                batches.append(_decode_batch(record, compactions))
            except (KeyError, ValueError) as exc:
                failure = (
                    f"segment {info.path.name}: batch {record['index']} has a "
                    f"malformed payload ({exc!r})"
                )
                journaled, expected = journaled[:count], record["index"]
                break
            report.compactions_dropped += len(compactions) - len(batches[-1][4])
        report.next_batch = expected
        report.batches_replayed += len(batches)
        yield from batches
        if failure is not None:
            report.corrupt_segment = info.path.name
            report.corrupt_batch = expected
            report.corruption = failure
            report.salvaged = journaled
            report.batches_lost += max(0, _record_lines(info.path) - len(journaled))
            report.batches_lost += _count_remaining_batches(infos[position + 1 :])
            return


def _count_remaining_batches(infos: List[SegmentInfo]) -> int:
    """Best-effort count of batch records in segments behind a corruption."""
    return sum(_record_lines(info.path) for info in infos)
