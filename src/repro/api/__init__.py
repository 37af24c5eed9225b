"""Unified public API: one front door over every sparsification method.

The paper's thesis is that spanner-based sparsification is *one* member
of a family of sampling schemes you can swap freely; this package makes
that swap a one-string change:

>>> import repro
>>> g = repro.generators.erdos_renyi_graph(200, 0.2, seed=1, ensure_connected=True)
>>> koutis = repro.sparsify(g, method="koutis", epsilon=0.5, seed=2)
>>> uniform = repro.sparsify(g, method="uniform", epsilon=0.5, seed=2)
>>> koutis.output_edges <= g.num_edges and uniform.output_edges <= g.num_edges
True

Pieces
------
* :mod:`repro.api.registry` — the fixed method table and its lookup
  helpers (:func:`get_method`, :func:`available_methods`, ...).
* :mod:`repro.api.request` — the immutable, JSON-round-trippable
  :class:`SparsifyRequest`.
* :mod:`repro.api.result` — :class:`UnifiedResult` /
  :class:`UnifiedBatchResult` / :class:`ProgressEvent`.
* :mod:`repro.api.engine` — :class:`Engine`, :func:`sparsify`,
  :func:`compare_methods`.

The table's seven methods (runners in :mod:`repro.core.methods`,
:mod:`repro.baselines.methods` and :mod:`repro.streaming.method`) are::

    koutis               PARALLELSPARSIFY (Algorithm 2, the paper)
    koutis-distributed   the CONGEST-simulated distributed driver
    spielman-srivastava  effective-resistance sampling [23]
    uniform              certificate-free uniform sampling
    kapralov-panigrahi   spanner-oversampling baseline [7]
    k-out                random k-out sampling (connectivity baseline)
    streaming            batched replay through StreamingSparsifier
"""

from repro.api.engine import Engine, compare_methods, sparsify
from repro.api.registry import (
    MethodSpec,
    available_method_names,
    available_methods,
    get_method,
)
from repro.api.request import SparsifyRequest
from repro.api.result import ProgressEvent, UnifiedBatchResult, UnifiedResult

__all__ = [
    "Engine",
    "sparsify",
    "compare_methods",
    "MethodSpec",
    "get_method",
    "available_methods",
    "available_method_names",
    "SparsifyRequest",
    "UnifiedResult",
    "UnifiedBatchResult",
    "ProgressEvent",
]
