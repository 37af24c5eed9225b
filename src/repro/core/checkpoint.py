"""Checkpoint journal for batch sparsification fan-outs.

A long ``sparsify_many`` batch that dies at job 900 of 1000 should not
re-pay the first 900 jobs on the next run.  :class:`BatchJournal` is the
persistence layer behind ``sparsify_many(checkpoint=...)``:

* **Append-only JSON lines.**  The journal is one JSON object per line —
  a header line describing the batch followed by one line per completed
  job.  Appends are atomic enough for this purpose (a crash mid-write
  corrupts at most the trailing line, which is detected and dropped on
  load); the header is validated so a journal from a different batch
  shape is refused instead of silently merged.
* **Content-addressed jobs.**  Each job line carries a digest of its
  input graph (vertex count + exact edge arrays).  On resume the digest
  is recomputed from the submitted graph; a mismatch at the same index
  means the caller is replaying a *different* batch against an old
  journal, which raises :class:`~repro.exceptions.CheckpointError` rather
  than returning another graph's sparsifier.
* **Bit-exact round-trip.**  Edge weights and cost scalars survive the
  JSON round-trip exactly (Python serializes floats with shortest
  round-trip repr), so a resumed batch's results are bit-identical to the
  run that wrote the journal.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

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
    "read_journal_records",
]

_JOURNAL_VERSION = 1


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


def read_journal_records(path: Path) -> List[Dict[str, Any]]:
    """Parse a JSON-lines journal, dropping a torn trailing line.

    A crash mid-append corrupts at most the final line, which is detected
    and silently dropped; corruption anywhere *before* the final line
    means the file is not an append-only journal of ours and raises
    :class:`CheckpointError`.  Missing or empty file returns ``[]``.
    """
    if not path.exists():
        return []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint journal {path}: {exc}") from exc
    records: List[Dict[str, Any]] = []
    for line_number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if line_number == len(lines) - 1:
                break  # torn trailing append from a crash: drop it
            raise CheckpointError(
                f"checkpoint journal {path} is corrupt at line "
                f"{line_number + 1}: {exc}"
            ) from exc
    return records


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


@dataclass(frozen=True)
class _Header:
    version: int
    epsilon: Optional[float]
    rho: float
    num_jobs: int


class BatchJournal:
    """Append-only JSON-lines journal of completed batch jobs.

    One journal belongs to one logical batch: the header pins the batch
    shape (job count and shared ``epsilon`` / ``rho``), and each recorded
    job pins its input graph by digest.  ``load_completed`` returns the
    jobs that can be skipped on resume; ``record`` appends a newly
    finished one.
    """

    def __init__(
        self,
        path: Union[str, Path],
        epsilon: Optional[float],
        rho: float,
        num_jobs: int,
        io: Optional[DurableIO] = None,
    ) -> None:
        self.path = Path(path)
        self._io = io if io is not None else DEFAULT_IO
        self._header = _Header(
            version=_JOURNAL_VERSION,
            epsilon=None if epsilon is None else float(epsilon),
            rho=float(rho),
            num_jobs=int(num_jobs),
        )

    def load_completed(self, graphs: List[Graph]) -> Dict[int, SparsifyResult]:
        """Read the journal and return ``{job index: result}`` for resumable jobs.

        Missing file → empty dict (fresh batch).  A header that does not
        match this batch's shape, or a job line whose graph digest does
        not match the graph now submitted at that index, raises
        :class:`CheckpointError` — the journal belongs to a different
        batch and silently reusing it would return wrong sparsifiers.
        A truncated trailing line (crash mid-append) is dropped.
        """
        records = read_journal_records(self.path)
        if not records:
            return {}
        header = records[0]
        if header.get("kind") != "header":
            raise CheckpointError(
                f"checkpoint journal {self.path} has no header line; "
                "refusing to resume from an unrecognized file"
            )
        if header.get("version") != self._header.version:
            raise CheckpointError(
                f"checkpoint journal {self.path} has version {header.get('version')}, "
                f"expected {self._header.version}"
            )
        for key in ("epsilon", "rho", "num_jobs"):
            if header.get(key) != getattr(self._header, key):
                raise CheckpointError(
                    f"checkpoint journal {self.path} was written for a different "
                    f"batch: {key}={header.get(key)!r} vs {getattr(self._header, key)!r}"
                )
        completed: Dict[int, SparsifyResult] = {}
        for record in records[1:]:
            if record.get("kind") != "job":
                continue
            index = int(record["index"])
            if not 0 <= index < len(graphs):
                raise CheckpointError(
                    f"checkpoint journal {self.path} records job {index} but the "
                    f"batch has {len(graphs)} jobs"
                )
            digest = batch_graph_digest(graphs[index])
            if record.get("graph_digest") != digest:
                raise CheckpointError(
                    f"checkpoint journal {self.path}: graph at job {index} does not "
                    "match the recorded digest — the journal belongs to a different "
                    "batch (delete it or pass a fresh checkpoint path)"
                )
            completed[index] = _deserialize_result(record["result"])
        return completed

    def record(self, index: int, graph: Graph, result: SparsifyResult) -> None:
        """Append one completed job (writing the header first if needed)."""
        line = json.dumps(
            {
                "kind": "job",
                "index": int(index),
                "graph_digest": batch_graph_digest(graph),
                "result": _serialize_result(result),
            }
        )
        new_file = not self.path.exists() or self.path.stat().st_size == 0
        # Both appends route through the DurableIO seam so the crash
        # harness can kill or tear each one.  A crash between them leaves
        # a header-only journal, which load_completed reads as an empty
        # (but valid) batch.
        if new_file:
            self._io.append_line(
                self.path, json.dumps({"kind": "header", **vars(self._header)}) + "\n"
            )
        self._io.append_line(self.path, line + "\n")
        if new_file:
            # The file's bytes are durable, but its *directory entry* is
            # not until the parent is fsync'd — without this, a crash
            # right after creating the journal can lose the whole file.
            self._io.fsync_dir(self.path.parent)
