"""repro — spanner-based spectral graph sparsification.

Reproduction of *Simple Parallel and Distributed Algorithms for Spectral
Graph Sparsification* (Ioannis Koutis, SPAA 2014).  The package provides

* the paper's sparsification algorithms ``PARALLELSAMPLE`` and
  ``PARALLELSPARSIFY`` with measured spectral certificates
  (:mod:`repro.core`),
* every substrate they depend on: weighted graph containers and
  generators (:mod:`repro.graphs`), Baswana–Sen spanners and t-bundles
  (:mod:`repro.spanners`), effective resistances and stretch
  (:mod:`repro.resistance`), PRAM work/depth accounting and a synchronous
  distributed simulator (:mod:`repro.parallel`), and the numerical tools
  (:mod:`repro.linalg`),
* the Peng–Spielman approximate-inverse-chain SDD solver with the
  sparsifier plugged in (:mod:`repro.solvers`),
* baselines (Spielman–Srivastava, uniform, Kapralov–Panigrahi-style) in
  :mod:`repro.baselines`, plus random k-out presampling
  (:mod:`repro.graphs.kout`),
* incremental sparsification over edge streams — batched ingest,
  on-demand snapshots and certification, journaled crash recovery
  (:mod:`repro.streaming`),
* measurement/reporting helpers for the experiment harness
  (:mod:`repro.analysis`), and
* the unified method API (:mod:`repro.api`): a registry-driven engine
  exposing every sparsifier — including yours, via
  :func:`repro.api.register_method` — through ``repro.sparsify(g,
  method=...)`` with one request/result model.

Quick start
-----------
The unified front door (:mod:`repro.api`) runs any registered method —
the paper's algorithm, its distributed driver, or a baseline — through
one call:

>>> import repro
>>> g = repro.generators.erdos_renyi_graph(300, 0.2, seed=1, ensure_connected=True)
>>> result = repro.sparsify(g, method="koutis", epsilon=0.5, rho=4, seed=2, certify=True)
>>> result.certificate.lower > 0 and result.certificate.upper < 10
True

The per-method legacy entry points remain supported and bit-identical:

>>> from repro import parallel_sparsify, certify_approximation
>>> legacy = parallel_sparsify(g, epsilon=0.5, rho=4, seed=2)
>>> legacy.sparsifier.same_edge_set(result.sparsifier)
True
"""

from repro._version import __version__

# Graph substrate.
from repro.graphs import Graph, generators
from repro.graphs.operations import graph_sum, graph_difference, graph_scale

# Spanners.
from repro.spanners import (
    baswana_sen_spanner,
    greedy_spanner,
    t_bundle_spanner,
    distributed_baswana_sen_spanner,
)

# Core sparsification.
from repro.core import (
    SparsifierConfig,
    parallel_sample,
    parallel_sparsify,
    certify_approximation,
    certify_resistances,
    SpectralCertificate,
    ResistanceCertificate,
    distributed_parallel_sample,
    distributed_parallel_sparsify,
)

# Resistances.
from repro.resistance import (
    effective_resistance,
    effective_resistances_all_edges,
    leverage_scores,
    approximate_effective_resistances,
    approximate_effective_resistances_detailed,
)

# Blocked multi-RHS Laplacian solver (powers the resistance paths above).
from repro.linalg import laplacian_solve_many, BatchSolveResult

# Solver.
from repro.solvers import solve_laplacian, solve_sdd, build_inverse_chain

# Baselines.
from repro.baselines import (
    spielman_srivastava_sparsify,
    uniform_sparsify,
    kapralov_panigrahi_sparsify,
)
from repro.graphs.kout import random_k_out_sample

# Streaming ingestion.
from repro.streaming import StreamingSparsifier, StreamJournal

# Unified method API (the front door).
from repro.api import (
    Engine,
    available_method_names,
    ProgressEvent,
    SparsifyRequest,
    UnifiedBatchResult,
    UnifiedResult,
    available_methods,
    compare_methods,
    get_method,
    method_descriptions,
    register_method,
    sparsify,
    unregister_method,
)

# Parallel / distributed models and execution backends.
from repro.parallel import (
    PRAMTracker,
    PRAMCost,
    DistributedCost,
    ExecutionBackend,
    available_backends,
    get_backend,
    set_default_backend,
)

__all__ = [
    "__version__",
    "Graph",
    "generators",
    "graph_sum",
    "graph_difference",
    "graph_scale",
    "baswana_sen_spanner",
    "greedy_spanner",
    "t_bundle_spanner",
    "distributed_baswana_sen_spanner",
    "SparsifierConfig",
    "parallel_sample",
    "parallel_sparsify",
    "certify_approximation",
    "certify_resistances",
    "SpectralCertificate",
    "ResistanceCertificate",
    "distributed_parallel_sample",
    "distributed_parallel_sparsify",
    "effective_resistance",
    "effective_resistances_all_edges",
    "leverage_scores",
    "approximate_effective_resistances",
    "approximate_effective_resistances_detailed",
    "laplacian_solve_many",
    "BatchSolveResult",
    "solve_laplacian",
    "solve_sdd",
    "build_inverse_chain",
    "spielman_srivastava_sparsify",
    "uniform_sparsify",
    "kapralov_panigrahi_sparsify",
    "random_k_out_sample",
    "StreamingSparsifier",
    "StreamJournal",
    "sparsify",
    "compare_methods",
    "Engine",
    "SparsifyRequest",
    "UnifiedResult",
    "UnifiedBatchResult",
    "ProgressEvent",
    "register_method",
    "unregister_method",
    "get_method",
    "available_methods",
    "available_method_names",
    "method_descriptions",
    "PRAMTracker",
    "PRAMCost",
    "DistributedCost",
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "set_default_backend",
]
