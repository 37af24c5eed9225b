"""The unified result model and the telemetry event type.

Every method returns its own native result type
(:class:`~repro.core.sparsify.SparsifyResult`,
:class:`~repro.baselines.spielman_srivastava.SSResult`, ...).  The engine
wraps each of them in a :class:`UnifiedResult` exposing the fields the
method-comparison experiments actually compare — sparsifier, edge counts,
reduction, measured cost, optional spectral certificate, wall time —
while keeping the native result reachable for method-specific detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.certificates import SpectralCertificate
from repro.graphs.graph import Graph
from repro.parallel.failure import FailureRecord
from repro.parallel.metrics import DistributedCost, PRAMCost, combine_concurrent, combine_parallel

__all__ = ["ProgressEvent", "UnifiedResult", "UnifiedBatchResult"]


@dataclass(frozen=True)
class ProgressEvent:
    """One telemetry event emitted by the engine during a run.

    ``kind`` is ``"round"`` for the per-round events of multi-round
    methods (Koutis' Algorithm 2 emits one per ``PARALLELSAMPLE`` round)
    and ``"result"`` for the completion event every method emits.
    ``job_index`` is set when the event belongs to a job inside
    :meth:`repro.api.Engine.run_many` (input order, 0-based).
    """

    method: str
    kind: str
    round_index: Optional[int] = None
    input_edges: int = 0
    output_edges: int = 0
    degenerate: bool = False
    job_index: Optional[int] = None


@dataclass
class UnifiedResult:
    """Method-agnostic view of one sparsification outcome.

    Attributes
    ----------
    method:
        Canonical name of the method that produced this result.
    sparsifier:
        The output graph.
    input_edges / output_edges:
        Edge counts before and after.
    wall_time_seconds:
        Wall-clock time of the method run (excludes certification).
    request:
        The :class:`~repro.api.request.SparsifyRequest` that produced it.
    native:
        The method's own result object, for method-specific detail
        (per-round records, sampling probabilities, ...).
    cost:
        The native measured cost when the method reports one
        (:class:`~repro.parallel.metrics.PRAMCost` for the PRAM pipeline,
        :class:`~repro.parallel.metrics.DistributedCost` for the
        distributed driver, ``None`` for the baselines).
    certificate:
        Measured :class:`~repro.core.certificates.SpectralCertificate`
        when the request asked for one, else ``None``.
    """

    method: str
    sparsifier: Graph
    input_edges: int
    output_edges: int
    wall_time_seconds: float
    request: Any = None
    native: Any = None
    cost: Optional[Any] = None
    certificate: Optional[SpectralCertificate] = None

    @property
    def num_edges(self) -> int:
        """Edges in the sparsifier (alias of ``output_edges``)."""
        return self.output_edges

    @property
    def reduction_factor(self) -> float:
        """Input edges divided by output edges (>= 1 for real reductions)."""
        if self.output_edges == 0:
            return float("inf") if self.input_edges else 1.0
        return self.input_edges / self.output_edges

    @property
    def num_rounds(self) -> int:
        """Rounds the method executed (1 for single-shot baselines)."""
        rounds = getattr(self.native, "rounds", None)
        return len(rounds) if rounds is not None else 1

    def summary(self) -> Dict[str, Any]:
        """Flat JSON-compatible summary row (what ``compare`` tabulates)."""
        certificate = self.certificate
        return {
            "method": self.method,
            "input_edges": self.input_edges,
            "output_edges": self.output_edges,
            "reduction": self.reduction_factor,
            "rounds": self.num_rounds,
            "cert_lower": certificate.lower if certificate else None,
            "cert_upper": certificate.upper if certificate else None,
            "eps_achieved": certificate.epsilon_achieved if certificate else None,
            "wall_seconds": self.wall_time_seconds,
        }


@dataclass
class UnifiedBatchResult:
    """Outcome of :meth:`repro.api.Engine.run_many` over many graphs.

    Holds one :class:`UnifiedResult` per job in input order, so batch
    workloads of *any* method report uniformly; for
    ``method="koutis"`` each ``results[i].native`` is the job's
    :class:`~repro.core.sparsify.SparsifyResult`.

    Under a ``failure_policy`` with ``on_error="collect"`` a permanently
    failed job leaves ``None`` in its ``results`` slot and a
    :class:`~repro.parallel.failure.FailureRecord` in ``failures``; the
    aggregate accessors skip the ``None`` slots.  ``attempts`` holds
    per-job attempt counts when a policy governed the run (``None``
    otherwise).  ``resumed_jobs`` counts the jobs restored from the
    ``checkpoint=`` journal instead of recomputed (0 without one).
    """

    results: List[Optional[UnifiedResult]] = field(default_factory=list)
    method: str = ""
    backend_name: str = "serial"
    max_workers: int = 1
    failures: List[FailureRecord] = field(default_factory=list)
    attempts: Optional[List[int]] = None
    resumed_jobs: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def num_jobs(self) -> int:
        return len(self.results)

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    @property
    def all_succeeded(self) -> bool:
        return not self.failures

    @property
    def total_input_edges(self) -> int:
        return sum(r.input_edges for r in self.results if r is not None)

    @property
    def total_output_edges(self) -> int:
        return sum(r.output_edges for r in self.results if r is not None)

    @property
    def reduction_factor(self) -> float:
        """Aggregate input edges divided by aggregate output edges."""
        out = self.total_output_edges
        if out == 0:
            return float("inf") if self.total_input_edges else 1.0
        return self.total_input_edges / out

    @property
    def cost(self) -> Optional[Any]:
        """Aggregate measured cost across the jobs (they ran concurrently).

        PRAM costs combine with the fork/join rule (work adds, depth is
        the max, as for independent jobs); distributed costs combine with
        max-rounds / sum-messages.  ``None`` when the
        method reports no cost (the baselines).
        """
        costs = [r.cost for r in self.results if r is not None and r.cost is not None]
        if not costs:
            return None
        if isinstance(costs[0], DistributedCost):
            return combine_concurrent(costs)
        if isinstance(costs[0], PRAMCost):
            return combine_parallel(costs)
        return None
