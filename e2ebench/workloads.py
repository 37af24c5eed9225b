"""Benchmark inputs: two graph regimes, every input derived from one seed.

A workload fixes a graph family and its density regime, measured as
``m / (n * log2 n)``: the paper's Section 4 applicability threshold is a
bound on exactly this ratio, so it decides how much of each round the
bundle absorbs.  Every op runs on every workload; ops whose cost grows
fastest with ``m`` (the CONGEST simulation and the durable stream) run on
a smaller "side" graph of the same family and regime, so one run fits its
time budget.

The program receives only the generated graphs.  The guards below check
input properties only (size, regime, connectivity, solver path), never an
algorithm outcome, so a change that fixes the reduction cannot trip them.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs import generators
from repro.graphs.connectivity import connected_components
from repro.graphs.graph import Graph
from repro.resistance.exact import _PINV_LIMIT

# Stream batches: the durable stream ingests the side graph in this many
# edges per ``ingest`` call, snapshotting every SNAPSHOT_EVERY batches.
BATCH_EDGES = 2000
SNAPSHOT_EVERY = 10

# Independent input sets per run.  Iterations cycle through them, so the
# figures that vary with the draw (reduction, message counts, and the time
# of every op) are medians over SETS draws rather than one draw's value.
SETS = 5
SMOKE_SETS = 2

# Tolerance of the regime guard: the generated ratio must lie within this
# share of the workload's target ratio.
RATIO_TOLERANCE = 0.1

# Seed streams, one per input or algorithm draw.  Adding a tag changes no
# existing stream.
_TAGS = {
    "main_graph": 1,
    "side_graph": 2,
    "arrival": 3,
    "sparsify": 4,
    "certify": 5,
    "distributed": 6,
    "stream": 7,
}


@dataclass(frozen=True)
class Workload:
    """One input regime: graph family, density ratio and sizes."""

    name: str
    family: str  # "er" (unit weights) or "banded" (weights U(0.1, 10))
    ratio: float  # target m / (n log2 n)
    main_n: int  # sparsify + certify input
    side_n: int  # distributed + stream input
    # Calls per iteration of the two read-only ops: a short op repeats so
    # its per-run median rests on more calls.
    certify_reps: int
    recover_reps: int
    why: str
    past_pinv: bool = False  # main graph must take the blocked-CG certify path


# banded-certify is there for sparsify and certify, which take most of its
# iteration; its side graph is small so a run visits more input sets and
# its per-run medians of those two ops rest on more calls.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense-er", "er", 12.6, 600, 500, 6, 2,
            "dense ER in the regime the paper targets: real reduction, CONGEST cost, "
            "many small stream compactions",
        ),
        Workload(
            "banded-certify", "banded", 5.29, 2600, 300, 1, 4,
            "banded weighted graph past the dense-pinv limit: ill-conditioned "
            "Laplacian, local memory access, block-CG certify",
            past_pinv=True,
        ),
    )
}

# Smoke sizes: every op and every metric, in a few seconds per workload.
SMOKE_SIZES: Dict[str, Tuple[int, int]] = {
    "dense-er": (100, 100),
    "banded-certify": (160, 100),
}


class GuardError(RuntimeError):
    """A generated input lacks the property its workload was chosen for."""


def derive_seed(seed: int, index: int, tag: str) -> int:
    """Independent 63-bit seed for one draw of input set ``index``."""
    state = np.random.SeedSequence([int(seed), int(index), _TAGS[tag]]).generate_state(
        2, dtype=np.uint32
    )
    return int((int(state[0]) << 31) ^ int(state[1]))


def regime_ratio(graph: Graph) -> float:
    n = graph.num_vertices
    return graph.num_edges / (n * math.log2(n))


def make_graph(workload: Workload, n: int, seed: int) -> Graph:
    if workload.family == "er":
        p = 2.0 * workload.ratio * math.log2(n) / (n - 1)
        return generators.erdos_renyi_graph(n, min(p, 1.0), seed=seed, ensure_connected=True)
    band = max(1, round(workload.ratio * math.log2(n)))
    return generators.banded_graph(n, band, weight_range=(0.1, 10.0), seed=seed)


def check_guards(workload: Workload, graph: Graph, n: int, role: str, smoke: bool) -> None:
    """Raise :class:`GuardError` unless ``graph`` has its workload's input properties."""
    if graph.num_vertices != n:
        raise GuardError(f"{workload.name} {role}: n={graph.num_vertices}, expected {n}")
    ratio = regime_ratio(graph)
    # Smoke graphs are too small for the regime to be meaningful.
    if not smoke and abs(ratio / workload.ratio - 1.0) > RATIO_TOLERANCE:
        raise GuardError(
            f"{workload.name} {role}: m/(n log2 n)={ratio:.2f}, expected "
            f"{workload.ratio} +/- {RATIO_TOLERANCE:.0%}"
        )
    if int(connected_components(graph).max()) != 0:
        raise GuardError(f"{workload.name} {role}: input graph is disconnected")
    if role == "main" and workload.past_pinv and not smoke and n <= _PINV_LIMIT:
        raise GuardError(
            f"{workload.name}: n={n} is within the dense-pinv limit {_PINV_LIMIT}; "
            "certify would not take the blocked-CG path"
        )


@dataclass
class InputSet:
    """One independent draw of a workload's inputs and algorithm seeds."""

    main: Graph  # sparsify + certify input
    side: Graph  # distributed + stream input
    batches: List[Tuple[np.ndarray, np.ndarray]]  # arrival-ordered (edges, weights)
    seeds: Dict[str, int]

    def describe(self) -> Dict[str, object]:
        return {
            role: {"n": g.num_vertices, "m": g.num_edges, "ratio": round(regime_ratio(g), 3)}
            for role, g in (("main", self.main), ("side", self.side))
        }


@dataclass
class Inputs:
    """Everything the ops read, built before the first timed call."""

    workload: Workload
    sets: List[InputSet]
    store_root: Path

    def describe(self) -> Dict[str, object]:
        return {"sets": [s.describe() for s in self.sets],
                "stream_batches": len(self.sets[0].batches)}


def build_set(workload: Workload, seed: int, index: int, smoke: bool) -> InputSet:
    """Generate and guard input set ``index`` of ``workload`` from ``seed``."""
    main_n, side_n = SMOKE_SIZES[workload.name] if smoke else (workload.main_n, workload.side_n)
    seeds = {tag: derive_seed(seed, index, tag) for tag in _TAGS}
    main = make_graph(workload, main_n, seeds["main_graph"])
    check_guards(workload, main, main_n, "main", smoke)
    side = make_graph(workload, side_n, seeds["side_graph"])
    check_guards(workload, side, side_n, "side", smoke)
    order = np.random.default_rng(seeds["arrival"]).permutation(side.num_edges)
    edges = np.column_stack([side.edge_u[order], side.edge_v[order]])
    weights = side.edge_weights[order]
    batches = [
        (edges[start:start + BATCH_EDGES], weights[start:start + BATCH_EDGES])
        for start in range(0, side.num_edges, BATCH_EDGES)
    ]
    return InputSet(main, side, batches, seeds)


def build_inputs(workload: Workload, seed: int, store_root: Path, smoke: bool) -> Inputs:
    """Every input set of one run, plus an empty directory for the durable stores."""
    sets = [build_set(workload, seed, i, smoke) for i in range(SMOKE_SETS if smoke else SETS)]
    if store_root.exists():
        shutil.rmtree(store_root)
    store_root.mkdir(parents=True)
    return Inputs(workload, sets, store_root)
