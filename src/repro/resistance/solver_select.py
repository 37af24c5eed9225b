"""Solver selection for the resistance / certification layer.

Every resistance route solves its Laplacian systems through
:func:`solve_with_degradation`; this module decides *which* solver each
call uses:

* ``"cg"`` (the default) — one exact factorization of the Laplacian when
  it is cheap, else plain blocked CG.  :class:`FactorGate` orders the
  vertices by reverse Cuthill–McKee (RCM) and picks the factorization:

  - *sparse*, when the envelope of that ordering is at most ``nnz(L)``
    (:data:`FACTOR_ENVELOPE_LIMIT`).  SuperLU factors L in the same
    ordering without pivoting, so its fill stays inside the envelope.
    Banded and path-like graphs, where CG needs hundreds of iterations
    per column, factor at about the size of the matrix.
  - *dense*, when the envelope rejects L and ``n <=``
    :data:`DENSE_FALLBACK_LIMIT`.  One dense Cholesky of the grounded
    Laplacian (``scipy.linalg.cho_factor``, O(n^3)) then answers every
    column with two triangular solves: small dense ER graphs and grids.

  Larger rejected graphs run plain blocked CG.
* ``"chain"`` — blocked CG preconditioned with a Peng–Spielman
  approximate inverse chain built by ``PARALLELSPARSIFY`` itself
  (:func:`repro.solvers.chain.build_preconditioner_chain`).  This closes
  the paper's loop: the sparsification machinery accelerates the very
  solves that certify sparsifiers.

The ladders are ``factor (sparse | dense) → cg → pinv`` and
``chain → cg → pinv``: columns a rung cannot answer to ``tol`` drop to the
next one as a recorded :class:`FallbackEvent`.  A gate that takes neither
factorization is a choice, not a fallback, and records nothing.

The chain is an explicit opt-in.  On one CPU a chain application costs
~25 graph-matvecs of arithmetic, so plain CG still wins wall-clock where
it converges in a few hundred iterations — ``BENCH_resistance.json``
records both sides.

Chains are reused through the process-wide
:func:`repro.solvers.chain.default_chain_cache`, keyed by
``(batch_graph_digest(graph), rho, seed)`` — a certification run touching the
same graph repeatedly builds its chain exactly once.  A factorization is
reused within one call only: the caller builds one :class:`FactorGate`
per graph and passes it to every chunk's solve.

:class:`ResistanceSolveStats` is the optional accumulator the benchmark
layer threads through these routes to report iteration counts and matvec
work (machine-independent quantities) instead of only wall-clock seconds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from repro.graphs.graph import Graph
from repro.linalg.cg import (
    BatchSolveResult,
    SolveStatus,
    _densify_block,
    laplacian_solve_many,
)

# repro.solvers is imported lazily inside the functions below: the solvers
# package depends on repro.core (chain construction runs PARALLELSPARSIFY),
# which depends on repro.spanners, which uses the resistance layer for
# stretch certification — a top-level import here would close that cycle.

__all__ = [
    "SOLVER_CHOICES",
    "DENSE_FALLBACK_LIMIT",
    "FACTOR_ENVELOPE_LIMIT",
    "FactorGate",
    "FallbackEvent",
    "ResistanceSolveStats",
    "resolve_solver",
    "chain_preconditioner_for",
    "solve_with_degradation",
]

SOLVER_CHOICES = ("cg", "chain")

# Largest graph for which the ladder accepts O(n^3) work and an n x n
# float64 array (50 MB at the limit): the dense Cholesky a rejected envelope
# takes instead of CG, the dense pseudoinverse of the last rung, and
# ``method="auto"``'s pinv choice under ``solver="chain"``
# (``repro.resistance.exact`` binds it as ``_PINV_LIMIT``).
DENSE_FALLBACK_LIMIT = 2500

# The factor rung runs when the envelope of the Laplacian's RCM ordering is
# at most this multiple of nnz(L).  Fill without pivoting stays inside the
# envelope, so the factor is then no larger than about the matrix itself.
FACTOR_ENVELOPE_LIMIT = 1.0

@dataclass(frozen=True)
class FallbackEvent:
    """One rung taken on the graceful-degradation ladder.

    Recorded whenever a resistance solve silently *would have* returned
    inexact values and instead dropped to a cheaper-but-sturdier solver:
    ``factor → cg`` (the factorization failed to build, or a column's
    residual missed ``tol``), ``chain → cg`` (preconditioner broke down or
    failed to build) and ``cg → pinv`` (plain CG still failed and the
    graph is small enough for a dense pseudoinverse).  Certificates built
    on a degraded solve carry these events in their stats, so the
    degradation is auditable.
    """

    from_solver: str
    to_solver: str
    reason: str
    columns: int  # number of RHS columns re-solved on the lower rung

    def __str__(self) -> str:
        return (
            f"{self.from_solver} -> {self.to_solver} "
            f"({self.columns} columns): {self.reason}"
        )

    def to_dict(self) -> dict:
        return {
            "from_solver": self.from_solver,
            "to_solver": self.to_solver,
            "reason": self.reason,
            "columns": self.columns,
        }


@dataclass
class ResistanceSolveStats:
    """Accumulated solver effort across the solves of one resistance call.

    All counts are *column* quantities (a blocked pass over ``c`` active
    columns counts ``c``), matching :class:`repro.linalg.cg.BatchSolveResult`,
    so they are directly comparable between blocked and looped solvers and
    across ``solver=`` choices.  Columns the factor rung answers count
    0 iterations and one matvec (the residual check); ``factorizations``
    (``dense_factorizations`` of them dense Cholesky), ``factor_columns``
    and ``factor_fill`` (the largest stored factor / ``nnz(L)`` of those
    factorizations: ``nnz(L+U)`` sparse, the ``n (n + 1) / 2`` triangle
    dense) say how much of the call it took.
    """

    solver: str = "cg"
    solves: int = 0
    columns: int = 0
    iterations_total: int = 0
    iterations_max: int = 0
    matvecs: int = 0
    precond_applications: int = 0
    work: float = 0.0
    chain_builds: int = 0
    factorizations: int = 0
    dense_factorizations: int = 0
    factor_columns: int = 0
    factor_fill: float = 0.0
    fallbacks: List[FallbackEvent] = field(default_factory=list)

    @property
    def iterations_mean(self) -> float:
        """Mean CG iterations per right-hand-side column."""
        return self.iterations_total / self.columns if self.columns else 0.0

    def record(self, solve: BatchSolveResult) -> None:
        self.solves += 1
        self.columns += solve.num_columns
        self.iterations_total += int(solve.iterations.sum())
        self.iterations_max = max(self.iterations_max, int(solve.iterations.max(initial=0)))
        self.matvecs += int(solve.matvecs)
        self.precond_applications += int(solve.precond_applications)
        self.work += float(solve.work)

    def record_fallback(self, event: FallbackEvent) -> None:
        self.fallbacks.append(event)

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "solves": self.solves,
            "columns": self.columns,
            "iterations_total": self.iterations_total,
            "iterations_mean": self.iterations_mean,
            "iterations_max": self.iterations_max,
            "matvecs": self.matvecs,
            "precond_applications": self.precond_applications,
            "work": self.work,
            "chain_builds": self.chain_builds,
            "factorizations": self.factorizations,
            "dense_factorizations": self.dense_factorizations,
            "factor_columns": self.factor_columns,
            "factor_fill": self.factor_fill,
            "fallbacks": [event.to_dict() for event in self.fallbacks],
        }


class FactorGate:
    """The factor rung for one Laplacian: its gate decision and, once built, its factor.

    The gate orders the vertices by reverse Cuthill–McKee and picks one
    of two factorizations:

    * sparse (:attr:`admits`), when the envelope of that ordering — the
      sum over rows of the distance from the diagonal back to the row's
      first nonzero — is at most ``FACTOR_ENVELOPE_LIMIT * nnz(L)``.
      SuperLU factors the grounded matrix in that ordering without
      pivoting (it is SPD), so its fill stays inside the envelope:
      ``nnz(L+U) <= 2 * envelope + 2n``.
    * dense (:attr:`dense`), when the envelope rejects the Laplacian and
      ``n <= DENSE_FALLBACK_LIMIT``.  One Cholesky factor of the grounded
      matrix, built in place in the one ``n × n`` array it holds.

    Both ground each connected component at its first vertex in RCM
    order.  The dense kind keeps those vertices as identity rows instead
    of cutting them out, so it needs no second copy of the matrix.
    ``labels`` are the caller's component labels of the Laplacian's
    graph, if it holds them; otherwise :meth:`factorize` labels L.

    One gate serves every chunk of one call: :meth:`factorize` builds the
    factorization on first use, and a failed build is re-raised on later
    calls instead of being retried.
    """

    def __init__(
        self,
        laplacian: Union[sp.spmatrix, np.ndarray],
        labels: Optional[np.ndarray] = None,
    ):
        lap = sp.csr_matrix(laplacian)
        n = lap.shape[0]
        self.laplacian = lap
        self.order = reverse_cuthill_mckee(lap, symmetric_mode=True).astype(np.int64)
        position = np.empty(n, dtype=np.int64)
        position[self.order] = np.arange(n)
        # Each row's distance back to its first nonzero in RCM positions.
        # Empty rows (isolated vertices) have width 0.
        widths = np.zeros(n, dtype=np.int64)
        rows = np.flatnonzero(np.diff(lap.indptr))
        if rows.size:
            first = np.minimum.reduceat(position[lap.indices], lap.indptr[rows])
            widths[rows] = np.maximum(position[rows] - first, 0)
        self.envelope = int(widths.sum())
        self.admits = bool(lap.nnz) and self.envelope <= FACTOR_ENVELOPE_LIMIT * lap.nnz
        self.dense = bool(lap.nnz) and not self.admits and n <= DENSE_FALLBACK_LIMIT
        if self.dense:
            # Flops of a dense Cholesky.
            self.factor_work = n ** 3 / 3.0
        else:
            # Flops of a factorization confined to the envelope: sum of
            # squared row widths (one dense triangular solve of width w per row).
            self.factor_work = float(np.dot(widths, widths))
        self.fill = 0.0
        self._labels = labels
        self._lu: Optional[spla.SuperLU] = None
        self._cholesky: Optional[Tuple[np.ndarray, bool]] = None
        self._error: Optional[Exception] = None

    @property
    def envelope_ratio(self) -> float:
        """The gate's measure: envelope / nnz(L)."""
        return self.envelope / max(self.laplacian.nnz, 1)

    def factorize(self) -> bool:
        """Build the factorization unless built; True when this call built it."""
        if self._lu is not None or self._cholesky is not None:
            return False
        if self._error is not None:
            raise self._error
        lap = self.laplacian
        n = lap.shape[0]
        labels = self._labels
        if labels is None:
            _, labels = connected_components(lap, directed=False)
        num_components = int(labels.max(initial=-1)) + 1
        # Ground each component at its first vertex in RCM order.
        _, first = np.unique(labels[self.order], return_index=True)
        self._grounded = self.order[first]
        kept = np.ones(n, dtype=bool)
        kept[first] = False
        self._kept = self.order[kept]
        try:
            if self.dense:
                self._cholesky = self._dense_factor(lap, self._grounded)
            else:
                self._lu = self._factor(lap[self._kept][:, self._kept].tocsc())
        except Exception as exc:  # noqa: BLE001 - remembered, re-raised to every later chunk
            self._error = exc
            raise
        # Stored factor entries, and the entries one column's two triangular
        # solves touch: the dense triangle twice, both sparse triangles once.
        stored = n * (n + 1) // 2 if self.dense else self._lu.nnz
        self._solve_entries = n * n if self.dense else stored
        self.fill = stored / max(lap.nnz, 1)
        sizes = np.bincount(labels, minlength=num_components)
        self._labels = labels
        self._averaging = sp.csr_matrix(
            (1.0 / sizes[labels], (labels, np.arange(n))), shape=(num_components, n)
        )
        return True

    @staticmethod
    def _factor(grounded: sp.csc_matrix) -> spla.SuperLU:
        # CSC input: SuperLU warns (SparseEfficiencyWarning) on anything else.
        return spla.splu(
            grounded,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    @staticmethod
    def _dense_factor(lap: sp.csr_matrix, grounded: np.ndarray) -> Tuple[np.ndarray, bool]:
        # Column-major, so LAPACK factors this one array in place.  Each
        # grounded vertex becomes an identity row and column: the factor
        # then solves the other rows exactly as if they were cut out.
        matrix = lap.toarray(order="F")
        matrix[grounded, :] = 0.0
        matrix[:, grounded] = 0.0
        matrix[grounded, grounded] = 1.0
        return cho_factor(matrix, overwrite_a=True, check_finite=False)

    def _triangular_solve(self, block: np.ndarray) -> np.ndarray:
        if self.dense:
            return cho_solve(self._cholesky, block, check_finite=False)
        return self._lu.solve(block)

    def _solve_grounded(self, b: np.ndarray) -> np.ndarray:
        """Solution of the grounded system, 0 at every grounded vertex."""
        if self.dense:
            x = self._triangular_solve(b)
            x[self._grounded] = 0.0
            return x
        x = np.zeros_like(b)
        x[self._kept] = self._triangular_solve(b[self._kept])
        return x

    def _project(self, block: np.ndarray) -> np.ndarray:
        """Subtract each column's mean over every component: project onto range(L)."""
        return block - (self._averaging @ block)[self._labels]

    def solve(
        self, rhs: Union[sp.spmatrix, np.ndarray], tol: float, block_size: int
    ) -> BatchSolveResult:
        """``L X = B`` through the factorization, one ``block_size`` chunk at a time.

        Each column is projected onto ``range(L)`` first (a vertex
        indicator ``e_v`` is not in it), and the answer has each
        component's mean removed, as on the CG and pinv rungs.  A column
        is converged when its relative residual ``||b - L x|| / ||b||``
        — CG's own criterion, checked with one block matvec — is within
        ``tol``; the rest are left for the next rung.  Call
        :meth:`factorize` first.
        """
        lap = self.laplacian
        n, k = rhs.shape
        rhs_matrix = rhs.tocsc() if sp.issparse(rhs) else np.asarray(rhs, dtype=float)
        x = np.zeros((n, k))
        residual_norms = np.zeros(k)
        num_blocks = 0
        for start in range(0, k, block_size):
            stop = min(start + block_size, k)
            b = self._project(_densify_block(rhs_matrix, start, stop))
            block = self._project(self._solve_grounded(b))
            x[:, start:stop] = block
            norms = np.linalg.norm(b, axis=0)
            residuals = np.linalg.norm(b - lap @ block, axis=0)
            residual_norms[start:stop] = residuals / np.where(norms > 0.0, norms, 1.0)
            num_blocks += 1
        # Per column: the two triangular solves, and the residual check's
        # one matvec.
        return BatchSolveResult(
            x=x,
            converged=residual_norms <= tol,
            iterations=np.zeros(k, dtype=np.int64),
            residual_norms=residual_norms,
            matvecs=k,
            work=float(k) * (self._solve_entries + lap.nnz),
            num_blocks=num_blocks,
        )


def resolve_solver(solver: str) -> str:
    """Validate a ``solver=`` knob: ``"cg"`` or ``"chain"``, returned unchanged."""
    if solver not in SOLVER_CHOICES:
        raise ValueError(
            f"unknown solver {solver!r}; expected one of {', '.join(SOLVER_CHOICES)}"
        )
    return solver


def chain_preconditioner_for(
    graph: Graph,
    stats: Optional[ResistanceSolveStats] = None,
    seed: int = 0,
) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Blocked chain preconditioner for ``graph`` plus its per-column cost.

    The chain comes from the process-wide cache, so repeated calls for the
    same graph (every chunk of a certification run) share one build; the
    build count charged to *this* call is recorded on ``stats``.
    Returns ``(preconditioner, work_per_application)`` ready to pass to
    :func:`repro.linalg.cg.laplacian_solve_many`.
    """
    from repro.solvers.chain import chain_preconditioner, default_chain_cache
    from repro.solvers.work_model import chain_work_model

    cache = default_chain_cache()
    builds_before = cache.builds
    chain = cache.chain_for(graph, seed=seed)
    if stats is not None:
        stats.chain_builds += cache.builds - builds_before
    work_per_application = chain_work_model(chain).work_per_application
    return chain_preconditioner(chain), work_per_application


def _summarize_failures(status: np.ndarray, converged: np.ndarray) -> str:
    """Human-readable tally of why columns failed, e.g. ``"3 not_finite, 1 breakdown"``."""
    failed_status = status[~converged]
    parts = []
    for code in np.unique(failed_status):
        count = int(np.count_nonzero(failed_status == code))
        parts.append(f"{count} {SolveStatus(int(code)).name.lower()}")
    return ", ".join(parts) if parts else "none"


def _record_fallback(
    stats: Optional[ResistanceSolveStats],
    from_solver: str,
    to_solver: str,
    reason: str,
    columns: int,
) -> None:
    event = FallbackEvent(from_solver, to_solver, reason, columns)
    if stats is not None:
        stats.record_fallback(event)
    # Degradation must never be silent: even callers that pass no stats
    # accumulator get told their "exact" values took a detour.
    warnings.warn(f"resistance solver degraded: {event}", stacklevel=3)


def solve_with_degradation(
    graph: Graph,
    laplacian: Union[sp.spmatrix, np.ndarray],
    rhs: Union[sp.spmatrix, np.ndarray],
    tol: float,
    block_size: int,
    solver: str,
    stats: Optional[ResistanceSolveStats] = None,
    seed: int = 0,
    gate: Optional[FactorGate] = None,
) -> BatchSolveResult:
    """Blocked Laplacian solve down the ``factor → cg → pinv`` or ``chain → cg → pinv`` ladder.

    Runs the first rung of the *resolved* solver and, instead of returning
    silently-inexact columns when something breaks, walks down a
    degradation ladder:

    1. ``"cg"`` first asks the factor gate (``gate``, or one built here
       for ``laplacian``).  When it takes a factorization, sparse or
       dense, the columns are answered by it, built once per gate.  A
       build that raises sends every column to plain CG; columns whose
       residual misses ``tol`` go to plain CG alone.  When the gate takes
       neither (a rejected envelope past ``DENSE_FALLBACK_LIMIT``), the
       call is exactly one ``laplacian_solve_many`` — bit-identical to
       calling it directly — and records nothing.
    2. ``"chain"`` whose preconditioner fails to build, or whose
       preconditioned solve leaves failed columns (breakdown / NaN /
       divergence / stagnation), drops to plain ``"cg"`` — re-solving only
       the failed columns.
    3. Columns plain CG still cannot converge are answered exactly by a
       dense pseudoinverse when the graph is small enough
       (``n <= DENSE_FALLBACK_LIMIT``); their status becomes
       :attr:`~repro.linalg.cg.SolveStatus.FALLBACK_EXACT`.

    Every rung taken is recorded as a :class:`FallbackEvent` on ``stats``
    and surfaced as a warning, so certificates built downstream are never
    silently inexact.  Callers that solve several chunks against one
    Laplacian pass the same ``gate`` to each, so the gate decision and the
    factorization are made once.
    """
    num_columns = rhs.shape[1]
    preconditioner = None
    precond_work = 0.0
    rung = solver
    solve = None
    if solver == "chain":
        try:
            preconditioner, precond_work = chain_preconditioner_for(
                graph, stats=stats, seed=seed
            )
        except Exception as exc:  # noqa: BLE001 - any build failure degrades
            _record_fallback(
                stats, "chain", "cg",
                f"preconditioner build failed: {type(exc).__name__}: {exc}",
                num_columns,
            )
            rung = "cg"
            preconditioner = None
            precond_work = 0.0
    else:
        if gate is None:
            gate = FactorGate(laplacian)
        if gate.admits or gate.dense:
            try:
                built = gate.factorize()
            except Exception as exc:  # noqa: BLE001 - any factorization failure degrades
                _record_fallback(
                    stats, "factor", "cg",
                    f"factorization failed: {type(exc).__name__}: {exc}",
                    num_columns,
                )
            else:
                solve = gate.solve(rhs, tol, block_size)
                if built:
                    solve.work += gate.factor_work
                rung = "factor"
                if stats is not None:
                    stats.factorizations += int(built)
                    stats.dense_factorizations += int(built and gate.dense)
                    stats.factor_columns += int(np.count_nonzero(solve.converged))
                    stats.factor_fill = max(stats.factor_fill, gate.fill)

    if solve is None:
        solve = laplacian_solve_many(
            laplacian,
            rhs,
            tol=tol,
            block_size=block_size,
            preconditioner=preconditioner,
            precond_work_per_application=precond_work,
        )
    if stats is not None:
        stats.record(solve)
    if solve.all_converged:
        return solve

    if rung != "cg":
        # The factorization or the preconditioned solve left some columns
        # unanswered — re-solve exactly those with plain CG, which has no
        # factor or preconditioner to poison.
        failed = np.flatnonzero(~solve.converged)
        if rung == "chain":
            reason = (
                "preconditioned solve failed "
                f"({_summarize_failures(solve.status, solve.converged)})"
            )
        else:
            worst = float(np.max(solve.residual_norms[failed]))
            reason = f"factor residual above tol={tol:g} (worst {worst:.2e})"
        _record_fallback(stats, rung, "cg", reason, int(failed.size))
        retry = laplacian_solve_many(
            laplacian,
            rhs[:, failed],
            tol=tol,
            block_size=block_size,
        )
        if stats is not None:
            stats.record(retry)
        solve.x[:, failed] = retry.x
        solve.converged[failed] = retry.converged
        solve.iterations[failed] = retry.iterations
        solve.residual_norms[failed] = retry.residual_norms
        solve.status[failed] = retry.status
        if solve.all_converged:
            return solve

    if graph.num_vertices <= DENSE_FALLBACK_LIMIT:
        # Last rung: answer the holdouts exactly.  O(n^3) — gated to small
        # graphs, where it is cheap insurance rather than a footgun.
        from repro.linalg.pseudoinverse import laplacian_pseudoinverse

        failed = np.flatnonzero(~solve.converged)
        _record_fallback(
            stats, "cg", "pinv",
            f"CG failed ({_summarize_failures(solve.status, solve.converged)})",
            int(failed.size),
        )
        failed_rhs = rhs[:, failed]
        if sp.issparse(failed_rhs):
            failed_rhs = failed_rhs.toarray()
        failed_rhs = np.asarray(failed_rhs, dtype=float)
        pinv = laplacian_pseudoinverse(graph.laplacian())
        exact = pinv @ failed_rhs
        lap_csr = sp.csr_matrix(laplacian)
        residual = failed_rhs - lap_csr @ exact
        norms = np.linalg.norm(failed_rhs, axis=0)
        norms[norms == 0.0] = 1.0
        solve.x[:, failed] = exact
        solve.converged[failed] = True
        solve.residual_norms[failed] = np.linalg.norm(residual, axis=0) / norms
        solve.status[failed] = int(SolveStatus.FALLBACK_EXACT)
    return solve
