"""Checksummed, atomically-written snapshots of streaming sampler state.

A snapshot captures the *full* deterministic state of a
:class:`~repro.streaming.sparsifier.StreamingSparsifier` — the leveled
retained pools, the pending buffer, the exact-reference pools, and every
counter the RNG schedule depends on (compaction index, batch index,
eviction/presample tallies).  Restoring a snapshot and replaying the
journal suffix written after it reproduces the stream bit for bit, which
is what bounds resume cost to O(recent batches) instead of O(stream
lifetime).

On-disk format (inside a store's ``snapshots/`` directory)::

    snap-00000007.state   # one binary blob: the arrays, concatenated
    snap-00000007.json    # manifest (format v2): params, counters, array table, digest

The manifest records each array's name, dtype and length plus a blake2b
digest of the whole blob, and is itself one
:func:`~repro.core.checkpoint.seal` record, so a damaged or torn blob and
a damaged manifest byte (a counter, a parameter, a key name) are
*detected* (:class:`~repro.exceptions.CheckpointError`) rather than
restored.  The write protocol is crash-ordered: blob to a temp file,
fsync, rename; then manifest to a temp file, fsync, rename; then
directory fsync.  A manifest therefore never exists without its complete
blob — recovery treats the manifest as the commit record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import DEFAULT_IO, DurableIO, open_record, seal
from repro.exceptions import CheckpointError

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotInfo",
    "list_snapshots",
    "load_snapshot",
    "snapshot_paths",
    "write_snapshot",
]

SNAPSHOT_VERSION = 2

_STATE_SUFFIX = ".state"
_MANIFEST_SUFFIX = ".json"
_PREFIX = "snap-"

# dtypes allowed in a snapshot blob: everything the sampler state uses.
_DTYPES = {"int64": np.int64, "float64": np.float64}


@dataclass(frozen=True)
class SnapshotInfo:
    """One snapshot as found on disk (manifest not yet validated)."""

    sequence: int
    manifest_path: Path
    state_path: Path


def snapshot_paths(directory: Union[str, Path], sequence: int) -> Tuple[Path, Path]:
    """(state blob path, manifest path) for snapshot ``sequence``."""
    directory = Path(directory)
    stem = f"{_PREFIX}{int(sequence):08d}"
    return directory / f"{stem}{_STATE_SUFFIX}", directory / f"{stem}{_MANIFEST_SUFFIX}"


def list_snapshots(directory: Union[str, Path]) -> List[SnapshotInfo]:
    """Snapshots present in ``directory``, oldest first, by manifest.

    Only snapshots whose *manifest* exists are listed (the manifest is the
    commit record); orphaned state blobs and temp files are ignored.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    infos = []
    for manifest in sorted(directory.glob(f"{_PREFIX}*{_MANIFEST_SUFFIX}")):
        stem = manifest.name[: -len(_MANIFEST_SUFFIX)]
        try:
            sequence = int(stem[len(_PREFIX):])
        except ValueError:
            continue
        infos.append(
            SnapshotInfo(
                sequence=sequence,
                manifest_path=manifest,
                state_path=manifest.with_name(stem + _STATE_SUFFIX),
            )
        )
    return infos


def _blob_digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def write_snapshot(
    directory: Union[str, Path],
    sequence: int,
    params: Dict[str, Any],
    counters: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    io: Optional[DurableIO] = None,
) -> Path:
    """Atomically persist one snapshot; returns the manifest path.

    ``arrays`` is an ordered mapping of named 1-D arrays (int64/float64);
    their raw bytes are concatenated into the state blob in mapping
    order, and the manifest records the table needed to slice them back
    out plus a blake2b digest over the whole blob.
    """
    io = io if io is not None else DEFAULT_IO
    directory = Path(directory)
    io.mkdir(directory)
    state_path, manifest_path = snapshot_paths(directory, sequence)

    table = []
    chunks = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.name not in _DTYPES:
            raise CheckpointError(
                f"snapshot array {name!r} has unsupported dtype {array.dtype}"
            )
        if array.ndim != 1:
            raise CheckpointError(
                f"snapshot array {name!r} must be 1-D, got shape {array.shape}"
            )
        table.append({"name": name, "dtype": array.dtype.name, "length": int(array.shape[0])})
        chunks.append(array.tobytes())
    blob = b"".join(chunks)

    manifest = {
        "kind": "stream-snapshot",
        "version": SNAPSHOT_VERSION,
        "sequence": int(sequence),
        "params": params,
        "counters": counters,
        "arrays": table,
        "state_bytes": len(blob),
        "state_digest": _blob_digest(blob),
    }

    # Crash-ordered: blob first, manifest second, each via temp + rename,
    # then the directory entry made durable.  A crash at any point leaves
    # either no manifest (snapshot invisible) or a complete pair.
    state_tmp = state_path.with_name(state_path.name + ".tmp")
    io.write_bytes(state_tmp, blob)
    io.replace(state_tmp, state_path)
    manifest_tmp = manifest_path.with_name(manifest_path.name + ".tmp")
    io.write_bytes(manifest_tmp, seal(manifest).encode("ascii"))
    io.replace(manifest_tmp, manifest_path)
    io.fsync_dir(directory)
    return manifest_path


def load_snapshot(
    info: SnapshotInfo,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, np.ndarray]]:
    """Validate and load one snapshot: ``(params, counters, arrays)``.

    Any inconsistency — unreadable, torn or unsealed manifest, missing
    blob, size or digest mismatch, malformed array table — raises
    :class:`CheckpointError`; the recovery ladder treats that as "this
    snapshot does not exist" and falls back to an older one.
    """
    try:
        line = info.manifest_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"snapshot manifest {info.manifest_path} is unreadable: {exc}"
        ) from exc
    manifest = open_record(
        line, "stream-snapshot", SNAPSHOT_VERSION, f"snapshot manifest {info.manifest_path}"
    )
    if manifest.get("sequence") != info.sequence:
        raise CheckpointError(
            f"snapshot manifest {info.manifest_path} records sequence "
            f"{manifest.get('sequence')}, expected {info.sequence}"
        )
    try:
        blob = info.state_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"snapshot state {info.state_path} is unreadable: {exc}"
        ) from exc
    if len(blob) != manifest.get("state_bytes"):
        raise CheckpointError(
            f"snapshot state {info.state_path} is {len(blob)} bytes, manifest "
            f"says {manifest.get('state_bytes')} — torn or truncated"
        )
    if _blob_digest(blob) != manifest.get("state_digest"):
        raise CheckpointError(
            f"snapshot state {info.state_path} does not match its manifest "
            "digest — refusing to restore corrupted state"
        )
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    table = manifest.get("arrays")
    if not isinstance(table, list):
        raise CheckpointError(
            f"snapshot manifest {info.manifest_path} has a malformed array table"
        )
    for entry in table:
        try:
            name = entry["name"]
            dtype = _DTYPES[entry["dtype"]]
            length = int(entry["length"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"snapshot manifest {info.manifest_path} has a malformed array "
                f"table entry: {entry!r}"
            ) from exc
        nbytes = length * np.dtype(dtype).itemsize
        if offset + nbytes > len(blob):
            raise CheckpointError(
                f"snapshot state {info.state_path} is shorter than its array table"
            )
        arrays[name] = np.frombuffer(
            blob, dtype=dtype, count=length, offset=offset
        ).copy()
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(
            f"snapshot state {info.state_path} has {len(blob) - offset} trailing "
            "bytes not covered by the array table"
        )
    return manifest.get("params") or {}, manifest.get("counters") or {}, arrays
