"""Durable I/O, the sealed-record codec, the journal line reader and the batch checkpoint.

Both persistence layers — the segmented stream journal and snapshots
(:mod:`repro.streaming`) and the batch checkpoint behind
``Engine.run_many(checkpoint=...)`` — build on this module:

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
* **The batch checkpoint (format v3).**  :class:`BatchJournal` is a
  header line pinning every request field that can change a job's
  output, then one line per completed job carrying a digest of its input
  graph (a different batch at that index is refused).  Weights and cost
  scalars survive the JSON round trip exactly (shortest round-trip float
  repr), so a resumed batch is bit-identical to the run that wrote the
  journal.

Batch jobs finish out of order while stream batches are contiguous, so
the two journals share the codec, the reader and the seam, not a segment
format.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sparsify import RoundRecord, SparsifyResult
from repro.exceptions import CheckpointError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost

__all__ = [
    "BatchJournal",
    "DurableIO",
    "DEFAULT_IO",
    "batch_graph_digest",
    "edge_array_digest",
    "fsync_directory",
    "open_record",
    "seal",
    "unseal",
]

_JOURNAL_VERSION = 3


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


def edge_array_digest(
    num_vertices: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_weights: np.ndarray,
) -> str:
    """Content hash of exact edge arrays (stable across processes).

    Shared by the batch journal (whole-graph digests) and the streaming
    journal (per-batch digests), so the two persistence layers cannot
    drift in what "the same edges" means.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(num_vertices).tobytes())
    digest.update(np.ascontiguousarray(edge_u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(edge_v, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(edge_weights, dtype=np.float64).tobytes())
    return digest.hexdigest()


def batch_graph_digest(graph: Graph) -> str:
    """Content hash of a graph's exact edge data (stable across processes)."""
    return edge_array_digest(
        graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights
    )


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


def _serialize_result(result: SparsifyResult) -> Dict[str, Any]:
    sparsifier = result.sparsifier
    return {
        "sparsifier": {
            "num_vertices": int(sparsifier.num_vertices),
            "edge_u": sparsifier.edge_u.tolist(),
            "edge_v": sparsifier.edge_v.tolist(),
            "edge_weights": sparsifier.edge_weights.tolist(),
        },
        "rounds": [vars(record) for record in result.rounds],
        "epsilon": result.epsilon,
        "rho": result.rho,
        "input_edges": int(result.input_edges),
        "output_edges": int(result.output_edges),
        "cost": {"work": result.cost.work, "depth": result.cost.depth},
        "stopped_early": bool(result.stopped_early),
    }


def _deserialize_result(payload: Dict[str, Any]) -> SparsifyResult:
    sparsifier_data = payload["sparsifier"]
    sparsifier = Graph(
        sparsifier_data["num_vertices"],
        np.asarray(sparsifier_data["edge_u"], dtype=np.int64),
        np.asarray(sparsifier_data["edge_v"], dtype=np.int64),
        np.asarray(sparsifier_data["edge_weights"], dtype=np.float64),
    )
    return SparsifyResult(
        sparsifier=sparsifier,
        rounds=[RoundRecord(**record) for record in payload["rounds"]],
        epsilon=payload["epsilon"],
        rho=payload["rho"],
        input_edges=payload["input_edges"],
        output_edges=payload["output_edges"],
        cost=PRAMCost(work=payload["cost"]["work"], depth=payload["cost"]["depth"]),
        stopped_early=payload["stopped_early"],
    )


class BatchJournal:
    """Append-only JSON-lines journal of completed batch jobs.

    One journal belongs to one logical batch.  ``pins`` holds every
    request field that can change a job's output (``Engine.run_many``
    passes the canonical method, ``epsilon``, ``rho``, ``seed``,
    ``options``, the resolved config without ``backend``/``max_workers``,
    and the job count); the header stores them and a resume under any
    other value is refused.  :meth:`load_completed` returns the jobs that
    can be skipped on resume; :meth:`record` appends a newly finished one.
    """

    def __init__(
        self,
        path: Union[str, Path],
        pins: Mapping[str, Any],
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        self._io = io if io is not None else DEFAULT_IO
        try:
            # The JSON round trip puts the pins in the form the header is
            # read back in, so tuples, numpy scalars and float reprs
            # cannot cause a spurious mismatch.
            canonical = json.loads(json.dumps(dict(pins)))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"batch checkpoint parameters are not JSON-serialisable: {exc}"
            ) from exc
        self._header = {"kind": "header", "version": _JOURNAL_VERSION, **canonical}
        self._header_written = False

    def load_completed(self, graphs: Sequence[Graph]) -> Dict[int, SparsifyResult]:
        """Read the journal and return ``{job index: result}`` for resumable jobs.

        Missing file → empty dict (fresh batch).  A header that pins a
        different request or another format version, a job line whose
        graph digest does not match the graph now submitted at that index,
        and a complete line that fails its seal all raise
        :class:`CheckpointError`.  An unterminated final fragment (crash
        mid-append) is cut off through the journal's :class:`DurableIO`,
        so the next append starts on a clean line.
        """
        if not self.path.exists():
            return {}
        try:
            records, valid_end, status = _parse_segment(self.path, self._check_header)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint journal {self.path}: {exc}") from exc
        if status == "interior":
            raise CheckpointError(
                f"checkpoint journal {self.path} is corrupt at byte {valid_end}: "
                "a complete line does not match its digest (not a torn trailing append)"
            )
        completed: Dict[int, SparsifyResult] = {}
        for record in records:
            index, result = self._decode_job(record, graphs)
            completed[index] = result
        self._header_written = valid_end > 0
        if status == "torn":
            self._io.truncate(self.path, valid_end)
        return completed

    def _check_header(self, line: bytes) -> None:
        header = open_record(line, "header", _JOURNAL_VERSION, f"checkpoint journal {self.path}")
        for key in sorted(set(header) | set(self._header)):
            if header.get(key) != self._header.get(key):
                raise CheckpointError(
                    f"checkpoint journal {self.path} was written for a different "
                    f"batch: {key}={header.get(key)!r} vs {self._header.get(key)!r}"
                )

    def _decode_job(
        self, record: Dict[str, Any], graphs: Sequence[Graph]
    ) -> Tuple[int, SparsifyResult]:
        try:
            if record["kind"] != "job":
                raise ValueError(f"record kind {record['kind']!r} is not 'job'")
            index = int(record["index"])
            graph_digest = record["graph_digest"]
            result = _deserialize_result(record["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint journal {self.path}: damaged job record ({exc}); "
                "refusing to restore it"
            ) from exc
        if not 0 <= index < len(graphs):
            raise CheckpointError(
                f"checkpoint journal {self.path} records job {index} but the "
                f"batch has {len(graphs)} jobs"
            )
        if graph_digest != batch_graph_digest(graphs[index]):
            raise CheckpointError(
                f"checkpoint journal {self.path}: graph at job {index} does not "
                "match the recorded digest — the journal belongs to a different "
                "batch (delete it or pass a fresh checkpoint path)"
            )
        return index, result

    def record(self, index: int, graph: Graph, result: SparsifyResult) -> None:
        """Append one completed job (writing the header first if needed)."""
        line = seal(
            {
                "kind": "job",
                "index": int(index),
                "graph_digest": batch_graph_digest(graph),
                "result": _serialize_result(result),
            }
        )
        # Both appends route through the DurableIO seam so the crash
        # harness can kill or tear each one.  A crash between them leaves
        # a header-only journal, which load_completed reads as an empty
        # (but valid) batch.
        new_file = not self._header_written
        if new_file:
            self._io.append_line(self.path, seal(self._header) + "\n")
            self._header_written = True
        self._io.append_line(self.path, line + "\n")
        if new_file:
            # The file's bytes are durable, but its *directory entry* is
            # not until the parent is fsync'd — without this, a crash
            # right after creating the journal can lose the whole file.
            self._io.fsync_dir(self.path.parent)
