"""Generate golden outputs for the columnar CONGEST engine parity tests.

Freezes, per (graph, seed) case, what the *reference* per-node simulator
(:mod:`repro.spanners._reference`, driven by
``reference_distributed_spanner``) produces for the distributed
Baswana–Sen protocol:

* the selected spanner edge indices (into the coalesced graph),
* the exact ``DistributedCost`` triple (rounds, messages, max words),
* the per-round message histogram.

The parity tests compare **both** engines against these frozen values,
so a behavioural drift of either one is caught even if the two engines
drift together.  Regeneration always re-derives from the reference
engine, never from the columnar engine under test:

    PYTHONPATH=src python tests/golden/generate_congest_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.spanners._reference import reference_distributed_spanner

OUT = Path(__file__).resolve().parent / "congest_goldens.json"


def disconnected_graph() -> Graph:
    """Two components of different shapes plus isolated vertices."""
    grid = gen.grid_graph(5, 5)
    cyc = gen.cycle_graph(7)
    u = np.concatenate([grid.edge_u, cyc.edge_u + 25])
    v = np.concatenate([grid.edge_v, cyc.edge_v + 25])
    return Graph(40, u, v)  # vertices 32..39 are isolated


def cases() -> list:
    """(name, graph, seed, k) combinations spanning the parity scenarios."""
    return [
        ("banded-96-b6", gen.banded_graph(96, 6), 11, None),
        ("powerlaw-120-a4", gen.barabasi_albert_graph(120, 4, seed=5), 23, None),
        ("grid-9x9", gen.grid_graph(9, 9), 7, 3),
        ("disconnected-40", disconnected_graph(), 3, None),
        (
            "er-80-weighted",
            gen.erdos_renyi_graph(80, 0.15, seed=3, weight_range=(0.5, 4.0), ensure_connected=True),
            42,
            4,
        ),
        ("cycle-33", gen.cycle_graph(33), 2, None),
    ]


def main() -> None:
    goldens = {}
    for name, graph, seed, k in cases():
        result = reference_distributed_spanner(graph, k=k, seed=seed)
        goldens[name] = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
            "k": k,
            "edge_indices": result.edge_indices.tolist(),
            "rounds": result.cost.rounds,
            "messages": result.cost.messages,
            "max_message_words": result.cost.max_message_words,
            "completed": result.completed,
        }
    OUT.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {OUT} ({len(goldens)} cases)")


if __name__ == "__main__":
    main()
