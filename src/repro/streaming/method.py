"""Engine adapter for the streaming sparsifier.

The runner of the ``"streaming"`` row (alias ``"stream"``) of the method
table (:mod:`repro.api.registry`): the input graph's edge list is
replayed through a :class:`~repro.streaming.sparsifier.StreamingSparsifier`
in ``num_batches`` consecutive batches and the final snapshot is returned.
This makes the streaming path a first-class citizen of ``compare`` runs —
the same graph, seed and quality gates as every batch method — and is
also the parity bridge the tests lean on: with ``num_batches=1`` and a
whole-graph compaction interval the output is bit-identical to the
``koutis`` single-round sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.config import SparsifierConfig
from repro.exceptions import StreamingError
from repro.graphs.graph import Graph
from repro.streaming.sparsifier import (
    IngestRecord,
    StreamSnapshot,
    StreamingSparsifier,
)

__all__ = ["StreamMethodResult", "run_streaming"]

_KNOWN_OPTIONS = ("num_batches", "window", "compaction_interval")


@dataclass(frozen=True)
class StreamMethodResult:
    """Engine-shaped result of a streamed run (plus the live objects).

    ``rounds`` holds one :class:`IngestRecord` per ingested batch, so
    the engine's ``num_rounds`` reports the batch count.
    """

    sparsifier: Graph
    input_edges: int
    output_edges: int
    rounds: List[IngestRecord]
    snapshot: StreamSnapshot
    stream: StreamingSparsifier


def run_streaming(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Replay ``graph`` through a :class:`StreamingSparsifier` and snapshot.

    Options: ``num_batches`` (default 4), ``window`` and
    ``compaction_interval`` (default ``ceil(m / num_batches)`` so every
    batch triggers roughly one compaction).  The bundle size, spanner
    ``k`` and sampling probability come from ``config``; a request
    ``epsilon`` replaces the config's.  ``rho`` has no streaming analogue
    and is ignored.
    """
    unknown = sorted(set(options) - set(_KNOWN_OPTIONS))
    if unknown:
        hint = (
            "; set SparsifierConfig.bundle_t or spanner_k instead"
            if {"t", "k"} & set(unknown)
            else ""
        )
        raise StreamingError(
            f"unknown streaming option(s): {', '.join(unknown)}; "
            f"known: {', '.join(_KNOWN_OPTIONS)}{hint}"
        )
    if epsilon is not None:
        config = config.with_overrides(epsilon=epsilon)
    num_batches = int(options.get("num_batches", 4))
    if num_batches < 1:
        raise StreamingError(f"num_batches must be >= 1, got {num_batches}")
    m = graph.num_edges
    interval = options.get("compaction_interval")
    if interval is None:
        interval = max(1, -(-m // num_batches))  # ceil(m / num_batches)
    stream = StreamingSparsifier(
        graph.num_vertices,
        config=config,
        seed=seed,
        window=options.get("window"),
        compaction_interval=interval,
    )
    # Contiguous slices preserve the input edge order, so num_batches=1
    # reproduces the batch sample bit for bit.
    bounds = [round(i * m / num_batches) for i in range(num_batches + 1)]
    records = []
    for i in range(num_batches):
        lo, hi = bounds[i], bounds[i + 1]
        record = stream.ingest(
            np.column_stack([graph.edge_u[lo:hi], graph.edge_v[lo:hi]]),
            graph.edge_weights[lo:hi],
        )
        records.append(record)
        emit(
            "round",
            round_index=i,
            input_edges=record.edges,
            output_edges=stream.retained_edges + stream.pending_edges,
        )
    snapshot = stream.snapshot()
    return StreamMethodResult(
        sparsifier=snapshot.graph,
        input_edges=stream.live_input_edges,
        output_edges=snapshot.graph.num_edges,
        rounds=records,
        snapshot=snapshot,
        stream=stream,
    )
