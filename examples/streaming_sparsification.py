"""Streaming sparsification: ingest edge batches, snapshot, crash, recover.

Run with:  PYTHONPATH=src python examples/streaming_sparsification.py

Walks the ``repro.streaming`` surface end to end:

1. feed a graph's edges to a :class:`~repro.streaming.StreamingSparsifier`
   in batches, with every batch journaled into a durable state store
   *before* ingestion and a checksummed snapshot every two batches,
2. take a pure :meth:`snapshot` and certify it against the exact live
   graph through the blocked solver stack,
3. simulate a crash and rebuild the stream bit-exactly with ``recover()``,
4. show a sliding ``window`` stream forgetting old batches.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import SparsifierConfig, generators
from repro.streaming import StreamingSparsifier

NUM_BATCHES = 4


def batches_of(graph, num_batches):
    """Cut a graph's edge list into contiguous (edges, weights) batches."""
    edges = np.column_stack([graph.edge_u, graph.edge_v])
    bounds = [round(i * graph.num_edges / num_batches) for i in range(num_batches + 1)]
    return [
        (edges[lo:hi], graph.edge_weights[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def main() -> None:
    graph = generators.erdos_renyi_graph(
        150, 0.3, seed=9, ensure_connected=True, weight_range=(0.5, 2.0)
    )
    print(f"input stream: n={graph.num_vertices}, m={graph.num_edges}, "
          f"{NUM_BATCHES} batches")

    # t=1, k=2 keeps the bundle small so a graph this size is genuinely
    # sampled; defaults (t ~ log n) would retain it whole.
    config = SparsifierConfig(bundle_t=1, spanner_k=2)

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "stream-store"
        stream = StreamingSparsifier(
            graph.num_vertices,
            config=config,
            seed=7,
            compaction_interval=400,
            store=store,
            snapshot_every=2,
        )
        for edges, weights in batches_of(graph, NUM_BATCHES):
            record = stream.ingest(edges, weights)
            print(f"  batch {record.batch_index}: +{record.edges} edges, "
                  f"{record.compactions_run} compaction(s), "
                  f"state {stream.retained_edges} retained + {stream.pending_edges} pending")

        snap = stream.snapshot()
        print(f"snapshot: {snap.num_edges} edges "
              f"({snap.stats.edges_ingested} ingested, "
              f"{snap.stats.compactions} compactions)")

        cert = stream.certify(solver="cg", seed=3)
        print(f"certified vs exact graph ({cert.reference_edges} edges): "
              f"spectral [{cert.report.certificate.lower:.3f}, "
              f"{cert.report.certificate.upper:.3f}], "
              f"resistances [{cert.resistances.ratio_min:.3f}, "
              f"{cert.resistances.ratio_max:.3f}]")
        print(f"holds(0.8): {cert.holds(0.8)}")

        # Crash simulation: drop the live object, recover from the store
        # (newest snapshot, then the journal suffix written after it).
        del stream
        resumed, report = StreamingSparsifier.recover(store, config=config)
        resumed_snap = resumed.snapshot()
        identical = (
            np.array_equal(resumed_snap.graph.edge_u, snap.graph.edge_u)
            and np.array_equal(resumed_snap.graph.edge_v, snap.graph.edge_v)
            and np.array_equal(resumed_snap.graph.edge_weights, snap.graph.edge_weights)
        )
        print(f"recovered ({'bit-exact' if report.bit_exact else 'LOSSY'}, "
              f"{report.batches_restored} batches from the snapshot, "
              f"{report.batches_replayed} replayed): snapshot bit-identical = {identical}")

    # Sliding window: only the last 2 batches stay live; earlier edges
    # (and their exact-reference copies) are evicted on ingest.
    windowed = StreamingSparsifier(
        graph.num_vertices, config=config, seed=7,
        compaction_interval=400, window=2,
    )
    for edges, weights in batches_of(graph, NUM_BATCHES):
        windowed.ingest(edges, weights)
    print(f"window=2 stream: {windowed.live_input_edges} of "
          f"{graph.num_edges} input edges still live, "
          f"snapshot has {windowed.snapshot().num_edges} edges")


if __name__ == "__main__":
    main()
