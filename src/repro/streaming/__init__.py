"""Streaming sparsification: incremental ingest, snapshot, certify.

The entry point is :class:`StreamingSparsifier` — see
:mod:`repro.streaming.sparsifier` for the design and
:mod:`repro.streaming.journal` for crash-resilient persistence.  A
``"streaming"`` method (:mod:`repro.streaming.method`) exposes the same
machinery through the unified method table and the CLI.
"""

from repro.streaming.journal import (
    DEFAULT_SEGMENT_BYTES,
    STREAM_JOURNAL_VERSION,
    JournalScanReport,
    StreamJournal,
)
from repro.streaming.snapshot import SNAPSHOT_VERSION
from repro.streaming.sparsifier import (
    CompactionRecord,
    IngestRecord,
    StreamCertificate,
    StreamSnapshot,
    StreamStats,
    StreamingSparsifier,
    compaction_rng,
)
from repro.streaming.store import RecoveryReport, StreamStateStore

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "SNAPSHOT_VERSION",
    "STREAM_JOURNAL_VERSION",
    "JournalScanReport",
    "RecoveryReport",
    "StreamJournal",
    "StreamStateStore",
    "CompactionRecord",
    "IngestRecord",
    "StreamCertificate",
    "StreamSnapshot",
    "StreamStats",
    "StreamingSparsifier",
    "compaction_rng",
]
