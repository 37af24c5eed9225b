"""Solver selection for the resistance / certification layer.

PR 5 made every resistance route go through the blocked multi-RHS CG
solver; this module decides *which* blocked solver each call uses:

* ``"cg"`` — plain blocked CG, exactly the PR 5 behavior (the default).
* ``"chain"`` — blocked CG preconditioned with a Peng–Spielman
  approximate inverse chain built by ``PARALLELSPARSIFY`` itself
  (:func:`repro.solvers.chain.build_preconditioner_chain`).  This closes
  the paper's loop: the sparsification machinery accelerates the very
  solves that certify sparsifiers.

The chain is an explicit opt-in.  On one CPU a chain application costs
~25 graph-matvecs of arithmetic, so plain CG still wins wall-clock where
it converges in a few hundred iterations — ``BENCH_resistance.json``
records both sides.

Chains are reused through the process-wide
:func:`repro.solvers.chain.default_chain_cache`, keyed by
``(batch_graph_digest(graph), rho, seed)`` — a certification run touching the
same graph repeatedly builds its chain exactly once.

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

from repro.graphs.graph import Graph
from repro.linalg.cg import BatchSolveResult, SolveStatus, laplacian_solve_many

# repro.solvers is imported lazily inside the functions below: the solvers
# package depends on repro.core (chain construction runs PARALLELSPARSIFY),
# which depends on repro.spanners, which uses the resistance layer for
# stretch certification — a top-level import here would close that cycle.

__all__ = [
    "SOLVER_CHOICES",
    "DENSE_FALLBACK_LIMIT",
    "FallbackEvent",
    "ResistanceSolveStats",
    "resolve_solver",
    "chain_preconditioner_for",
    "solve_with_degradation",
]

SOLVER_CHOICES = ("cg", "chain")

# Largest graph for which the last rung of the degradation ladder (dense
# pseudoinverse) is allowed to fire — an O(n^3) factorization past this is
# worse than admitting approximate values.  Matches the exact layer's
# pinv-vs-solve crossover.
DENSE_FALLBACK_LIMIT = 2500

@dataclass(frozen=True)
class FallbackEvent:
    """One rung taken on the graceful-degradation ladder.

    Recorded whenever a resistance solve silently *would have* returned
    inexact values and instead dropped to a cheaper-but-sturdier solver:
    ``chain → cg`` (preconditioner broke down or failed to build) and
    ``cg → pinv`` (plain CG still failed and the graph is small enough for
    a dense pseudoinverse).  Certificates built on a degraded solve carry
    these events in their stats, so the degradation is auditable.
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
    across ``solver=`` choices.
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
    fallbacks: List[FallbackEvent] = field(default_factory=list)

    @property
    def iterations_mean(self) -> float:
        """Mean CG iterations per right-hand-side column."""
        return self.iterations_total / self.columns if self.columns else 0.0

    @property
    def degraded(self) -> bool:
        """True when any solve fell down the degradation ladder."""
        return bool(self.fallbacks)

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
            "fallbacks": [event.to_dict() for event in self.fallbacks],
        }


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
) -> BatchSolveResult:
    """Blocked Laplacian solve with the ``chain → cg → pinv`` ladder.

    Runs the *resolved* solver (``"cg"`` or ``"chain"``) and, instead of
    returning silently-inexact columns when something breaks, walks down a
    degradation ladder:

    1. ``"chain"`` whose preconditioner fails to build, or whose
       preconditioned solve leaves failed columns (breakdown / NaN /
       divergence / stagnation), drops to plain ``"cg"`` — re-solving only
       the failed columns.
    2. Columns plain CG still cannot converge are answered exactly by a
       dense pseudoinverse when the graph is small enough
       (``n <= DENSE_FALLBACK_LIMIT``); their status becomes
       :attr:`~repro.linalg.cg.SolveStatus.FALLBACK_EXACT`.

    Every rung taken is recorded as a :class:`FallbackEvent` on ``stats``
    and surfaced as a warning, so certificates built downstream are never
    silently inexact.  On the happy path (everything converges first try)
    the call is exactly one ``laplacian_solve_many`` — bit-identical to
    calling it directly.
    """
    num_columns = rhs.shape[1]
    preconditioner = None
    precond_work = 0.0
    active = solver
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
            active = "cg"
            preconditioner = None
            precond_work = 0.0

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

    if active == "chain":
        # Rung 1: the preconditioned solve broke down on some columns —
        # re-solve exactly those with plain CG (the PR 5 workhorse, which
        # has no preconditioner to poison).
        failed = np.flatnonzero(~solve.converged)
        _record_fallback(
            stats, "chain", "cg",
            f"preconditioned solve failed ({_summarize_failures(solve.status, solve.converged)})",
            int(failed.size),
        )
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
        # Rung 2: answer the holdouts exactly.  O(n^3) — gated to small
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
