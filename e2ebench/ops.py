"""The five timed operations, their output checks and their output digests.

Each op calls the library's public entry points through module attributes
(``repro.sparsify``, ``certificates.certify_resistances``), which is where
the traced run installs its wrappers.  Every call gets a fresh copy of its
input graph, so no call reuses another call's cached Laplacian.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

import repro
import repro.core.certificates as certificates
from repro.core.config import SparsifierConfig
from repro.graphs.connectivity import connected_components
from repro.graphs.graph import Graph
from repro.resistance.solver_select import ResistanceSolveStats
from repro.streaming import StreamingSparsifier
from workloads import SNAPSHOT_EVERY, InputSet

OPS = ("batch", "certify", "distributed", "ingest", "recover")
RHO = 16
NUM_PAIRS = 64
# The sparsify calls run at the default epsilon (0.5) in the practical
# configuration, which does not carry the theory's w.h.p. guarantee: about
# 1 in 40 dense-er draws measures eps_refuted between 0.5 and 0.56.  The
# output check therefore asks the certificate to hold at 1.5 times that
# epsilon, which still refutes outputs that lost their 1/p reweighting or
# their connectivity, not the tail of a correct sampler.
CHECK_EPSILON = 1.5 * SparsifierConfig().epsilon


@dataclass
class Outcome:
    """One op call: its timed seconds, output digest, and what checks found."""

    seconds: float
    digest: str
    output: Any = None
    problems: List[str] = field(default_factory=list)


def digest_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def graph_digest(graph: Graph) -> str:
    return digest_arrays(
        np.array([graph.num_vertices], dtype=np.int64),
        graph.edge_u, graph.edge_v, graph.edge_weights,
    )


def fresh(graph: Graph) -> Graph:
    """Same edges, new object: no cached adjacency or Laplacian."""
    return Graph(graph.num_vertices, graph.edge_u, graph.edge_v, graph.edge_weights)


def check_sparsifier(graph: Graph, sparsifier: Graph) -> List[str]:
    """Output edges are input endpoint pairs, and connectivity is preserved."""
    problems = []
    if not np.isin(sparsifier.edge_keys(), graph.edge_keys()).all():
        problems.append("an output edge is not an input endpoint pair")
    components_in = int(connected_components(graph).max()) + 1
    components_out = int(connected_components(sparsifier).max()) + 1
    if components_out != components_in:
        problems.append(f"connectivity lost: {components_in} -> {components_out} components")
    return problems


def _op_span(tracer: Any, name: str):
    return tracer.op(name) if tracer is not None else contextlib.nullcontext()


def run_sparsify(op: str, graph: Graph, method: str, seed: int, tracer: Any = None) -> Outcome:
    """One ``repro.sparsify`` call (the batch and distributed ops)."""
    graph = fresh(graph)
    with _op_span(tracer, op):
        start = time.perf_counter()
        result = repro.sparsify(graph, method=method, rho=RHO, seed=seed)
        seconds = time.perf_counter() - start
    return Outcome(seconds, graph_digest(result.sparsifier), (graph, result))


def run_certify(inputs: InputSet, sparsifier: Graph, tracer: Any = None) -> Outcome:
    """Blocked-CG resistance certificate of the batch op's output."""
    graph = fresh(inputs.main)
    sparsifier = fresh(sparsifier)
    stats = ResistanceSolveStats(solver="cg")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with _op_span(tracer, "certify"):
            start = time.perf_counter()
            cert = certificates.certify_resistances(
                graph, sparsifier, num_pairs=NUM_PAIRS, seed=inputs.seeds["certify"],
                method="solve", solver="cg", stats=stats,
            )
            seconds = time.perf_counter() - start
    problems = [f"solver warning: {w.message}" for w in caught]
    if stats.fallbacks:
        problems.append(f"{len(stats.fallbacks)} solver fallbacks recorded")
    if cert.num_pairs_used != NUM_PAIRS:
        problems.append(f"only {cert.num_pairs_used} of {NUM_PAIRS} probe pairs used")
    if not cert.holds(CHECK_EPSILON):
        problems.append(
            f"certificate refutes eps={CHECK_EPSILON}: "
            f"eps_refuted={cert.epsilon_refuted_below:.4f}"
        )
    digest = digest_arrays(np.array([cert.ratio_min, cert.ratio_max, cert.num_pairs_used]))
    return Outcome(seconds, digest, (cert, stats), problems)


@dataclass
class StreamRun:
    batch_seconds: List[float]
    edges: int
    live_input_edges: int
    snapshot: Graph


def run_ingest(inputs: InputSet, store: Path, tracer: Any = None) -> Outcome:
    """Stream the side graph into a durable sparsifier; time the ingest calls."""
    stream = StreamingSparsifier(
        inputs.side.num_vertices, seed=inputs.seeds["stream"], store=store,
        snapshot_every=SNAPSHOT_EVERY,
    )
    batch_seconds = []
    with _op_span(tracer, "ingest"):
        for edges, weights in inputs.batches:
            start = time.perf_counter()
            stream.ingest(edges, weights)
            batch_seconds.append(time.perf_counter() - start)
    snapshot = stream.snapshot().graph
    run = StreamRun(batch_seconds, stream.edges_ingested, stream.live_input_edges, snapshot)
    return Outcome(sum(batch_seconds), graph_digest(snapshot), run)


def run_recover(store: Path, before_crash: Optional[str], tracer: Any = None) -> Outcome:
    """Recover the abandoned stream from its store; compare with the pre-crash snapshot."""
    with _op_span(tracer, "recover"):
        start = time.perf_counter()
        stream, report = StreamingSparsifier.recover(store)
        seconds = time.perf_counter() - start
    digest = graph_digest(stream.snapshot().graph)
    problems = []
    if not report.bit_exact or report.batches_lost:
        problems.append(f"recovery not bit-exact: {report.batches_lost} batches lost")
    if digest != before_crash:
        problems.append("recovered snapshot differs from the snapshot taken before the crash")
    return Outcome(seconds, digest, report, problems)
