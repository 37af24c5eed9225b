"""Durable I/O, the sealed-record codec and the journal line reader.

The stream journal, snapshots and state store (:mod:`repro.streaming`)
build on this module:

* **One mutation seam.**  Every write goes through :class:`DurableIO`
  (default :data:`DEFAULT_IO`: real, fsync'd filesystem operations), which
  is where the crash harness (:class:`repro.testing.faults.CrashPointIO`)
  kills or tears each write.
* **One record codec.**  Every JSON record the durability layer writes
  is a :func:`seal` line: its last key, ``digest``, is a blake2b-128 of
  the serialized bytes before it.  :func:`unseal` checks that digest on
  the raw bytes before it decodes anything, so any damaged byte of a
  record — a header, a counter, a payload, a key name — reads as a
  record that is not there.  :func:`open_record` opens a file's first
  record and refuses another kind, another format version (an unsealed
  older format is named by its version) or a failed seal.
* **One line reader, one rule.**  :func:`_parse_segment` reads a JSON-lines
  file.  Only an unterminated final fragment is a torn append (the crash
  signature), which the writer cuts off through :meth:`DurableIO.truncate`
  before its next append; any other line that fails its seal is
  corruption.

:func:`batch_graph_digest`, a content hash of a graph's exact edge
arrays, keys :class:`repro.solvers.chain.ChainCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import CheckpointError
from repro.graphs.graph import Graph

__all__ = [
    "DurableIO",
    "DEFAULT_IO",
    "batch_graph_digest",
    "fsync_directory",
    "open_record",
    "seal",
    "unseal",
]


def fsync_directory(path: Union[str, Path]) -> None:
    """Fsync a directory so entry creations/renames inside it are durable.

    Writing and fsyncing a *file* makes its bytes durable, but the file's
    very existence lives in the parent directory's entry list — a crash
    between the file fsync and the directory fsync can lose the whole
    file.  Every create/rotate/rename in the durability layer is followed
    by this call.  Platforms whose directory handles reject fsync (some
    network filesystems, Windows) degrade gracefully.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # e.g. O_RDONLY on a directory unsupported: best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableIO:
    """The filesystem mutation surface of the durability layer.

    Every write the journals, snapshots and state store perform goes
    through one of these methods, which gives the crash-consistency
    torture harness (:class:`repro.testing.faults.CrashPointIO`) a single
    seam to kill the process at — or tear a write in half — at every
    possible point.  The default instance (:data:`DEFAULT_IO`) performs
    real, fsync'd filesystem operations.

    Reads are *not* routed through here: a crash cannot corrupt a read,
    and recovery must be able to read whatever survived.
    """

    def mkdir(self, path: Union[str, Path]) -> None:
        """Create a directory (parents included), then fsync its parent."""
        path = Path(path)
        existed = path.is_dir()
        path.mkdir(parents=True, exist_ok=True)
        if not existed:
            fsync_directory(path.parent)

    def append_line(self, path: Union[str, Path], text: str) -> None:
        """Append one line (with trailing newline) and fsync the file."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())

    def write_bytes(self, path: Union[str, Path], data: bytes) -> None:
        """Write a whole file and fsync it (no rename — see :meth:`replace`)."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, source: Union[str, Path], target: Union[str, Path]) -> None:
        """Atomically rename ``source`` over ``target``, then fsync the directory."""
        os.replace(str(source), str(target))
        fsync_directory(Path(target).parent)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        fsync_directory(path)

    def remove(self, path: Union[str, Path]) -> None:
        os.remove(str(path))

    def truncate(self, path: Union[str, Path], size: int) -> None:
        """Cut a file to ``size`` bytes (dropping a torn tail) and fsync it."""
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())


DEFAULT_IO = DurableIO()


def batch_graph_digest(graph: Graph) -> str:
    """Content hash of a graph's exact edge data (stable across processes)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(graph.num_vertices).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_v, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_weights, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _seal_tail(head: bytes) -> bytes:
    """What :func:`seal` appends to a record's serialized bytes ``head``."""
    digest = hashlib.blake2b(head, digest_size=16).hexdigest()
    return b', "digest": "%s"}' % digest.encode("ascii")


_SEAL_BYTES = len(_seal_tail(b""))


def seal(body: Mapping[str, Any]) -> str:
    """``body`` as one JSON line whose last key, ``digest``, hashes the bytes before it."""
    head = json.dumps(body)[:-1]
    return head + _seal_tail(head.encode("ascii")).decode("ascii")


def unseal(line: bytes) -> Optional[Dict[str, Any]]:
    """The body :func:`seal` wrote as ``line``, or ``None`` when ``line`` fails its seal.

    The digest is checked on the raw bytes first: a damaged line is never
    decoded, and a sealed one is never re-serialized.
    """
    head = line[:-_SEAL_BYTES]
    if line[-_SEAL_BYTES:] != _seal_tail(head):
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    del record["digest"]
    return record


def open_record(line: bytes, kind: str, version: int, source: str) -> Dict[str, Any]:
    """The sealed first record of a durable file, a ``kind`` record at format ``version``.

    Raises :class:`CheckpointError` for a record of another kind, one of
    another version (an unsealed older-format record is named by its
    version) and one that fails its seal.
    """
    record = unseal(line)
    found: Any = record
    if found is None:
        try:  # older formats were unsealed: decode the line to name its version
            found = json.loads(line)
        except ValueError:
            pass
    if not isinstance(found, dict) or found.get("kind") != kind:
        raise CheckpointError(
            f"{source} does not start with a {kind} record; refusing an "
            "unrecognized or damaged file"
        )
    if found.get("version") != version:
        raise CheckpointError(
            f"{source} has version {found.get('version')}, expected {version}"
        )
    if record is None:
        raise CheckpointError(f"{source}: its {kind} record does not match its digest")
    return record


def _parse_segment(
    path: Path, check_header: Callable[[bytes], Any], advisory: Optional[bytes] = None
) -> Tuple[List[Dict[str, Any]], int, str]:
    """Parse one JSON-lines file: ``(records, valid_end_offset, status)``.

    The first complete line goes to ``check_header``, which raises
    :class:`CheckpointError` when it is not the file's header; every later
    one goes through :func:`unseal` into ``records``.  ``valid_end_offset``
    is the byte offset just past the last complete line that unsealed.
    ``status`` is ``"clean"`` (every byte parsed), ``"torn"`` (an
    unterminated final fragment — the signature of a crash mid-append,
    droppable), or ``"interior"`` (a complete line that fails its seal: an
    append that finished and was then damaged, which is real corruption
    wherever it sits).  A complete line that starts with ``advisory``
    holds data the reader can recompute, so when it fails its seal it
    reads as an empty record instead of ending the parse.
    """
    data = path.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Unterminated tail (even if it happens to unseal): the
            # append never completed, so the batch was never processed.
            return records, offset, "torn"
        line = data[offset:newline]
        if offset == 0:
            check_header(line)
        else:
            record = unseal(line)
            if record is None:
                if advisory is None or not line.startswith(advisory):
                    return records, offset, "interior"
                record = {}
            records.append(record)
        offset = newline + 1
    return records, offset, "clean"
