"""Iterative solvers with explicit iteration and work accounting.

The paper's solver results (Theorem 6) are about *total work*; wall-clock
time on one laptop is not the quantity of interest.  Each solver here
therefore returns a :class:`SolveResult` carrying the iteration count, the
number of matrix-vector products, and an estimate of arithmetic work
(``nnz`` multiplied by the number of matvecs), which the benchmark harness
aggregates.

Laplacian systems are singular (null space = constants per component); the
solvers project right-hand sides and iterates onto the orthogonal
complement of the null space, which is the standard treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, List, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConvergenceError
from repro.graphs.laplacian import is_laplacian

__all__ = [
    "SolveResult",
    "SolveStatus",
    "ColumnFailure",
    "BatchSolveResult",
    "conjugate_gradient",
    "laplacian_solve",
    "laplacian_solve_many",
    "deflate_constant",
]


class SolveStatus(IntEnum):
    """Per-column outcome of a blocked solve — richer than a converged bool.

    ``CONVERGED`` and ``FALLBACK_EXACT`` are success states (the column's
    answer is usable); everything else names *how* the column failed, so
    the degradation ladder in :mod:`repro.resistance.solver_select` and
    callers of ``raise_on_failure`` can react to the cause instead of a
    bare flag.
    """

    CONVERGED = 0
    MAX_ITERATIONS = 1
    BREAKDOWN = 2  # p^T A p <= 0: matrix not PSD along the search direction
    STAGNATED = 3  # no new best residual for `stagnation_window` iterations
    DIVERGED = 4  # relative residual exceeded `divergence_limit`
    NOT_FINITE = 5  # NaN/Inf in the residual or the quadratic form
    BUDGET_EXHAUSTED = 6  # the caller's work budget ran out mid-solve
    FALLBACK_EXACT = 7  # answered exactly by a dense-pinv fallback solve


@dataclass(frozen=True)
class ColumnFailure:
    """One right-hand-side column that failed a blocked solve."""

    column: int
    status: SolveStatus
    iterations: int
    residual: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"column {self.column}: {self.status.name} after "
            f"{self.iterations} iterations (residual {self.residual:.3e})"
        )

MatrixLike = Union[sp.spmatrix, np.ndarray, spla.LinearOperator]
Preconditioner = Callable[[np.ndarray], np.ndarray]


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        Approximate solution.
    converged:
        True if the relative residual dropped below the tolerance.
    iterations:
        Number of iterations performed.
    residual_norm:
        Final relative residual ``||b - A x|| / ||b||``.
    matvecs:
        Matrix-vector products with the system matrix.
    precond_applications:
        Applications of the preconditioner.
    work:
        Estimated arithmetic work: ``nnz(A) * matvecs`` plus the cost
        attributed to preconditioner applications by the caller.
    residual_history:
        Relative residual after each iteration (including iteration 0).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    matvecs: int = 0
    precond_applications: int = 0
    work: float = 0.0
    residual_history: list = field(default_factory=list)


def _matvec_closure(matrix: MatrixLike):
    """Return (matvec callable, nnz estimate, dimension)."""
    if isinstance(matrix, spla.LinearOperator):
        n = matrix.shape[0]
        nnz = getattr(matrix, "nnz", n)
        return (lambda vec: matrix @ vec), float(nnz), n
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        return (lambda vec: csr @ vec), float(csr.nnz), csr.shape[0]
    arr = np.asarray(matrix, dtype=float)
    return (lambda vec: arr @ vec), float(arr.shape[0] * arr.shape[1]), arr.shape[0]


def deflate_constant(vec: np.ndarray) -> np.ndarray:
    """Project ``vec`` onto the orthogonal complement of the all-ones vector.

    For connected Laplacian systems this removes the (single) null-space
    component.  For multi-component graphs callers should solve per
    component; projecting the global constant is still harmless.
    """
    vec = np.asarray(vec, dtype=float)
    return vec - vec.mean()


def conjugate_gradient(
    matrix: MatrixLike,
    rhs: np.ndarray,
    tol: float = 1e-8,
    max_iterations: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    x0: Optional[np.ndarray] = None,
    deflate: bool = False,
    precond_work_per_application: float = 0.0,
    raise_on_failure: bool = False,
) -> SolveResult:
    """(Preconditioned) conjugate gradient for SPD / PSD systems.

    Parameters
    ----------
    matrix:
        SPD or PSD matrix (sparse, dense, or LinearOperator).
    rhs:
        Right-hand side vector.
    tol:
        Relative residual target ``||b - A x|| <= tol * ||b||``.
    max_iterations:
        Cap on iterations; defaults to ``10 n``.
    preconditioner:
        Callable approximating ``A^+`` applied to a vector.
    deflate:
        Project iterates and rhs against the constant vector (for
        Laplacians of connected graphs).
    precond_work_per_application:
        Work units charged per preconditioner application (e.g. total nnz
        of an approximate-inverse chain); feeds the ``work`` field.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    """
    matvec, nnz, n = _matvec_closure(matrix)
    b = np.asarray(rhs, dtype=float).ravel()
    if b.shape[0] != n:
        raise ValueError(f"rhs must have length {n}, got {b.shape[0]}")
    if deflate:
        b = deflate_constant(b)
    if max_iterations is None:
        max_iterations = max(10 * n, 100)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if deflate and x0 is not None:
        x = deflate_constant(x)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveResult(
            x=np.zeros(n), converged=True, iterations=0, residual_norm=0.0,
            matvecs=0, work=0.0, residual_history=[0.0],
        )

    matvecs = 0
    precond_apps = 0

    r = b - matvec(x)
    matvecs += 1
    if deflate:
        r = deflate_constant(r)
    z = preconditioner(r) if preconditioner is not None else r
    if preconditioner is not None:
        precond_apps += 1
        if deflate:
            z = deflate_constant(z)
    p = z.copy()
    rz = float(np.dot(r, z))
    residual = float(np.linalg.norm(r)) / b_norm
    history = [residual]

    iterations = 0
    converged = residual <= tol
    while not converged and iterations < max_iterations:
        ap = matvec(p)
        matvecs += 1
        if deflate:
            ap = deflate_constant(ap)
        p_ap = float(np.dot(p, ap))
        if p_ap <= 0 or not np.isfinite(p_ap):
            # Breakdown: matrix not PSD along p (or numerical noise); stop.
            break
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        residual = float(np.linalg.norm(r)) / b_norm
        iterations += 1
        history.append(residual)
        if residual <= tol:
            converged = True
            break
        z = preconditioner(r) if preconditioner is not None else r
        if preconditioner is not None:
            precond_apps += 1
            if deflate:
                z = deflate_constant(z)
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz if rz != 0 else 0.0
        rz = rz_new
        p = z + beta * p

    if deflate:
        x = deflate_constant(x)
    work = nnz * matvecs + precond_work_per_application * precond_apps
    result = SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=residual,
        matvecs=matvecs,
        precond_applications=precond_apps,
        work=work,
        residual_history=history,
    )
    if raise_on_failure and not converged:
        raise ConvergenceError(
            f"CG failed to reach tol={tol} in {iterations} iterations "
            f"(residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    return result


def laplacian_solve(
    laplacian: Union[sp.spmatrix, np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-8,
    max_iterations: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    precond_work_per_application: float = 0.0,
) -> SolveResult:
    """Solve a (connected-graph) Laplacian system ``L x = b`` with CG.

    The right-hand side is projected against the constant vector so the
    singular system has a solution; the returned ``x`` has zero mean.
    """
    return conjugate_gradient(
        laplacian,
        rhs,
        tol=tol,
        max_iterations=max_iterations,
        preconditioner=preconditioner,
        deflate=True,
        precond_work_per_application=precond_work_per_application,
    )


@dataclass
class BatchSolveResult:
    """Outcome of a blocked multi-RHS solve (:func:`laplacian_solve_many`).

    Attributes
    ----------
    x:
        ``(n, k)`` solution block, one column per right-hand side.
    converged:
        ``(k,)`` bool array, per-column convergence flags.
    iterations:
        ``(k,)`` int array: iterations each column stayed active before
        converging (columns that never converge record the final count).
    residual_norms:
        ``(k,)`` final relative residuals ``||b_j - A x_j|| / ||b_j||``.
    matvecs:
        Total *column* matrix-vector products: each blocked pass over
        ``c`` active columns counts as ``c`` — directly comparable to the
        matvec count of ``k`` independent :func:`laplacian_solve` calls.
    precond_applications:
        Total *column* preconditioner applications, counted the same way
        as ``matvecs`` (each blocked application to ``c`` active columns
        counts as ``c``); zero when no preconditioner is attached.
    work:
        Estimated arithmetic work ``nnz(A) * matvecs`` plus
        ``precond_work_per_application * precond_applications`` as charged
        by the caller, so preconditioned and plain solves are compared on
        total flops, not iteration counts alone.
    num_blocks:
        Number of column chunks the solve was split into.
    status:
        ``(k,)`` :class:`SolveStatus` codes (int array) saying *how* each
        column ended — converged, hit the iteration cap, broke down,
        stagnated, diverged, went non-finite, ran out of budget, or was
        answered by an exact fallback.  ``converged`` remains the derived
        boolean convenience (True exactly for the success statuses).
    """

    x: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual_norms: np.ndarray
    matvecs: int = 0
    precond_applications: int = 0
    work: float = 0.0
    num_blocks: int = 0
    status: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # External constructors (tests, adapters) may build the result from
        # the pre-status fields alone; derive a consistent status array.
        if self.status is None:
            converged = np.asarray(self.converged, dtype=bool)
            self.status = np.where(
                converged, int(SolveStatus.CONVERGED), int(SolveStatus.MAX_ITERATIONS)
            ).astype(np.int8)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    @property
    def num_columns(self) -> int:
        return int(self.converged.shape[0])

    @property
    def failures(self) -> List[ColumnFailure]:
        """Structured per-column failure records (empty when all converged)."""
        failed = np.flatnonzero(~np.asarray(self.converged, dtype=bool))
        return [
            ColumnFailure(
                column=int(j),
                status=SolveStatus(int(self.status[j])),
                iterations=int(self.iterations[j]),
                residual=float(self.residual_norms[j]),
            )
            for j in failed
        ]


def _densify_block(rhs, start: int, stop: int) -> np.ndarray:
    """Columns ``[start, stop)`` of a dense or sparse RHS as a dense block.

    Rejects non-finite right-hand-side entries up front: a NaN that enters
    the CG recurrences contaminates every inner product of its block, and
    the historical failure mode was a garbage column that merely looked
    unconverged.  The check is per chunk, so its cost is part of the
    block's own memory traffic.
    """
    if sp.issparse(rhs):
        block = np.asarray(rhs[:, start:stop].todense(), dtype=float)
    else:
        block = np.array(rhs[:, start:stop], dtype=float)
    if not np.isfinite(block).all():
        bad = np.flatnonzero(~np.isfinite(block).all(axis=0))
        raise ValueError(
            f"rhs columns {(start + bad[:8]).tolist()} contain non-finite values "
            "(NaN/Inf); a poisoned right-hand side cannot produce a meaningful "
            "solve — clean the input instead"
        )
    return block


# Re-project the recursively updated residual block against the constant
# vector every this many iterations: the matvec keeps exact-arithmetic
# iterates in range(L), so only slow roundoff drift needs scrubbing.
_DEFLATE_EVERY = 50


def _precondition(preconditioner: Preconditioner, r: np.ndarray, deflate: bool) -> np.ndarray:
    """``z = M r`` for a residual block, checked to keep the block's ``(n, c)`` shape.

    A vector-style callable (``lambda r: r / diag``) broadcasts a block to
    the wrong shape; naming both shapes here beats an ``IndexError`` or a
    broadcast error deep in the recurrence.
    """
    z = np.asarray(preconditioner(r), dtype=float)
    if z.shape != r.shape:
        raise ValueError(
            f"preconditioner returned shape {z.shape} for a residual block of shape "
            f"{r.shape}; it must map an (n, c) block to an (n, c) block"
        )
    if deflate:
        z = z - z.mean(axis=0, keepdims=True)
    return z


def _block_cg(
    matvec,
    block: np.ndarray,
    tol: float,
    max_iterations: int,
    deflate: bool,
    preconditioner: Optional[Preconditioner] = None,
    stagnation_window: Optional[int] = None,
    divergence_limit: float = 1e8,
    matvec_budget: Optional[float] = None,
):
    """Simultaneous (P)CG on one dense ``(n, c)`` block with per-column freezing.

    Every column runs its own CG recurrence (own ``alpha``/``beta``), but
    the matrix — and the preconditioner, when one is attached — is applied
    to the whole block in one flat pass per iteration.  Converged (or
    broken-down) columns are *frozen* — their ``alpha``/``beta`` forced to
    zero so the iterate stops moving — and the working arrays are
    physically compressed once at least half the columns are frozen, so
    late iterations only pay for the stragglers without per-iteration
    fancy-indexing overhead.  The preconditioned state needs no separate
    compression: ``z`` is recomputed from the (compressed) residual block
    each iteration, so the preconditioner is only ever applied to live
    columns after a compression.

    Convergence is always judged on the *true* relative residual
    ``||r|| / ||b||`` (not the preconditioned norm ``sqrt(r^T z)``), so
    ``tol`` means the same thing with and without a preconditioner.

    With ``preconditioner=None`` the computation is operation-for-operation
    identical to the unpreconditioned solver (``z`` aliases ``r``), so
    attaching the hook does not perturb existing results.

    Failure detection (all freeze the column at its current iterate and
    record a :class:`SolveStatus`):

    * **breakdown** — ``p^T A p <= 0`` (matrix not PSD along ``p``);
    * **non-finite** — NaN/Inf in the quadratic form or residual (e.g. a
      poisoned preconditioner), caught the iteration it appears instead of
      silently burning ``max_iterations``;
    * **divergence** — relative residual above ``divergence_limit`` (a
      healthy CG on a PSD system never gets near it; a broken — e.g.
      indefinite — preconditioner does);
    * **stagnation** — no new best residual for ``stagnation_window``
      consecutive iterations (``None`` disables; plain CG residuals are
      non-monotone, so windows should be generous);
    * **budget** — ``matvec_budget`` cumulative column-matvecs spent
      (``None`` = unlimited); remaining live columns freeze as
      ``BUDGET_EXHAUSTED``.

    Returns ``(x, converged, iterations, residual_norms, column_matvecs,
    column_precond_applications, status)``.
    """
    n, k = block.shape
    x_out = np.zeros((n, k))
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    residual_norms = np.zeros(k)
    status = np.full(k, int(SolveStatus.MAX_ITERATIONS), dtype=np.int8)

    b = block
    if deflate:
        b = b - b.mean(axis=0, keepdims=True)
    b_norms = np.linalg.norm(b, axis=0)
    zero_cols = b_norms == 0.0
    converged[zero_cols] = True  # x = 0 solves a zero RHS exactly
    status[zero_cols] = int(SolveStatus.CONVERGED)
    cols = np.flatnonzero(~zero_cols)  # original index of each working column
    column_matvecs = 0
    column_precond_apps = 0
    if cols.size == 0:
        return (
            x_out, converged, iterations, residual_norms,
            column_matvecs, column_precond_apps, status,
        )

    r = np.array(b[:, cols])  # contiguous working copies
    if preconditioner is None:
        z = r  # alias: keeps the unpreconditioned path bit-identical
        rz = np.einsum("ij,ij->j", r, z)
        rr = rz
    else:
        z = _precondition(preconditioner, r, deflate)
        column_precond_apps += r.shape[1]
        rz = np.einsum("ij,ij->j", r, z)
        rr = np.einsum("ij,ij->j", r, r)
    p = z.copy()
    x = np.zeros((n, cols.size))
    tmp = np.empty_like(p)  # scratch for axpy updates (avoids 2 allocs/iter)
    scale = b_norms[cols]
    frozen = np.sqrt(rr) / scale <= tol
    residual_norms[cols] = np.sqrt(rr) / scale
    converged[cols[frozen]] = True
    status[cols[frozen]] = int(SolveStatus.CONVERGED)
    # Stagnation bookkeeping: best residual seen per working column and the
    # number of iterations since it last improved (carried through compression).
    best_residual = residual_norms[cols].copy()
    since_best = np.zeros(cols.size, dtype=np.int64)

    iteration = 0
    budget_hit = False
    while not frozen.all() and iteration < max_iterations:
        if matvec_budget is not None and column_matvecs >= matvec_budget:
            budget_hit = True
            break
        iteration += 1
        ap = matvec(p)
        column_matvecs += p.shape[1]
        p_ap = np.einsum("ij,ij->j", p, ap)
        # Breakdown (matrix not PSD along p / numerical noise) and poisoned
        # arithmetic: freeze the column at its current iterate, like the
        # looped solver, and record which way it died.
        not_finite = ~np.isfinite(p_ap) & ~frozen
        broken = (p_ap <= 0) & np.isfinite(p_ap) & ~frozen
        status[cols[not_finite]] = int(SolveStatus.NOT_FINITE)
        status[cols[broken]] = int(SolveStatus.BREAKDOWN)
        frozen |= not_finite | broken
        alpha = np.where(frozen, 0.0, rz / np.where(frozen, 1.0, p_ap))
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(ap, alpha, out=tmp)
        r -= tmp
        if deflate and iteration % _DEFLATE_EVERY == 0:
            r -= r.mean(axis=0, keepdims=True)
        rr = np.einsum("ij,ij->j", r, r)
        residual = np.sqrt(rr) / scale
        live = ~frozen
        # Residuals that went non-finite or blew past the divergence limit
        # can only get worse — freeze them now with their cause recorded.
        bad_residual = live & ~np.isfinite(residual)
        diverged = live & np.isfinite(residual) & (residual > divergence_limit)
        status[cols[bad_residual]] = int(SolveStatus.NOT_FINITE)
        status[cols[diverged]] = int(SolveStatus.DIVERGED)
        frozen |= bad_residual | diverged
        live = ~frozen
        iterations[cols[live]] = iteration
        residual_norms[cols[live]] = residual[live]
        newly_converged = live & (residual <= tol)
        if np.any(newly_converged):
            converged[cols[newly_converged]] = True
            status[cols[newly_converged]] = int(SolveStatus.CONVERGED)
            frozen |= newly_converged
        if stagnation_window is not None:
            improved = np.isfinite(residual) & (residual < best_residual)
            best_residual = np.where(improved, residual, best_residual)
            since_best = np.where(improved, 0, since_best + 1)
            stagnated = ~frozen & (since_best >= stagnation_window)
            if np.any(stagnated):
                status[cols[stagnated]] = int(SolveStatus.STAGNATED)
                frozen |= stagnated
        num_frozen = int(frozen.sum())
        if num_frozen == frozen.size:
            break
        if preconditioner is None:
            z = r
            rz_new = rr
        else:
            z = _precondition(preconditioner, r, deflate)
            column_precond_apps += r.shape[1]
            rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(frozen, 0.0, rz_new / np.where(rz > 0.0, rz, 1.0))
        rz = rz_new
        p *= beta
        p += z  # frozen columns get p = z, but alpha = 0 keeps them inert
        if 2 * num_frozen >= frozen.size:
            # Compress: write finished columns out, keep the stragglers.
            x_out[:, cols[frozen]] = x[:, frozen]
            keep = ~frozen
            cols = cols[keep]
            x = np.array(x[:, keep])
            r = np.array(r[:, keep])
            p = np.array(p[:, keep])
            tmp = np.empty_like(p)
            rz, scale = rz[keep], scale[keep]
            best_residual, since_best = best_residual[keep], since_best[keep]
            frozen = np.zeros(cols.size, dtype=bool)

    if budget_hit:
        status[cols[~frozen]] = int(SolveStatus.BUDGET_EXHAUSTED)
    x_out[:, cols] = x
    if deflate:
        x_out -= x_out.mean(axis=0, keepdims=True)
    return (
        x_out, converged, iterations, residual_norms,
        column_matvecs, column_precond_apps, status,
    )


def laplacian_solve_many(
    laplacian: MatrixLike,
    rhs: Union[sp.spmatrix, np.ndarray],
    tol: float = 1e-8,
    max_iterations: Optional[int] = None,
    block_size: int = 128,
    deflate: bool = True,
    preconditioner: Optional[Preconditioner] = None,
    precond_work_per_application: float = 0.0,
    validate: bool = False,
    raise_on_failure: bool = False,
    stagnation_window: Optional[int] = None,
    divergence_limit: float = 1e8,
    work_budget: Optional[float] = None,
) -> BatchSolveResult:
    """Blocked multi-RHS solve ``L X = B`` for an ``(n, k)`` RHS matrix.

    The certification and resistance layers need *many* Laplacian solves
    against the same matrix (one per probe pair, per edge, or per JL
    direction).  Solving them one `laplacian_solve` call at a time pays
    per-iteration Python and memory-traffic overhead ``k`` times; this
    routine instead runs simultaneous CG on column chunks of at most
    ``block_size`` right-hand sides, applying the matrix to the whole
    active block in one flat pass per iteration (``csr @ dense`` — the
    "constant number of flat passes" discipline of the vectorized spanner
    and CONGEST layers).

    Parameters
    ----------
    laplacian:
        PSD system matrix (sparse preferred; dense and LinearOperator
        also accepted).
    rhs:
        ``(n, k)`` right-hand sides, dense or scipy-sparse (sparse RHS
        blocks — e.g. pair-indicator columns — are densified one chunk at
        a time, bounding peak memory at ``O(n * block_size)``).
    tol:
        Per-column relative residual target (always measured on the true
        residual ``||b_j - A x_j|| / ||b_j||``, so it is directly
        comparable across preconditioned and plain runs).
    max_iterations:
        Per-column iteration cap; defaults to ``10 n`` like the looped
        solver.
    block_size:
        Maximum number of columns solved simultaneously per chunk.
    deflate:
        Project right-hand sides and iterates against the constant vector
        (shared Laplacian null-space treatment; disable for SPD systems).

        **Contract:** ``deflate=True`` assumes the system matrix is
        symmetric with the all-ones vector in its null space (a Laplacian;
        for multi-component graphs, solve per component).  This is *not*
        checked by default — dense matrices and ``LinearOperator`` inputs
        are taken on faith, and for a non-symmetric or non-singular input
        the projection silently changes the system being solved.  Pass
        ``validate=True`` to assert the property on matrix inputs.
    preconditioner:
        Optional callable approximating ``A^+`` applied to an ``(n, c)``
        dense block (e.g. :func:`repro.solvers.chain.chain_preconditioner`).
        Must be symmetric positive definite on the relevant subspace and
        return an ``(n, c)`` block (``ValueError`` naming both shapes
        otherwise).  ``None`` keeps the solver on the exact
        unpreconditioned code path.
    precond_work_per_application:
        Work units charged per *column* preconditioner application (e.g.
        ``2 * total_nnz`` of an approximate-inverse chain); feeds the
        ``work`` field so preconditioned solves are comparable on flops.
    validate:
        Debug assertion (opt-in, off in hot loops): when ``deflate=True``,
        check via :func:`repro.graphs.laplacian.is_laplacian` that a
        sparse or dense ``laplacian`` input really is one, and raise
        ``ValueError`` otherwise.  ``LinearOperator`` inputs cannot be
        validated cheaply and are skipped.
    raise_on_failure:
        Raise :class:`ConvergenceError` if any column fails to converge.
        The exception carries the per-column :class:`ColumnFailure` records
        (column index, :class:`SolveStatus`, iterations, final residual)
        in its ``failures`` attribute, and the worst column's iteration
        count / residual in ``iterations`` / ``residual``.
    stagnation_window:
        Freeze a column as :attr:`SolveStatus.STAGNATED` if its residual
        sets no new best for this many consecutive iterations (``None``
        disables — the default, since plain CG residuals are non-monotone
        and a tight window would cut off healthy solves).
    divergence_limit:
        Freeze a column as :attr:`SolveStatus.DIVERGED` once its relative
        residual exceeds this (always on; healthy PSD solves stay orders
        of magnitude below the ``1e8`` default).
    work_budget:
        Optional cap on solve work in the same units as the returned
        ``work`` field (matvec flops ``nnz * matvecs`` plus preconditioner
        work).  Converted to a cumulative column-matvec budget shared
        across chunks; once spent, remaining live columns freeze as
        :attr:`SolveStatus.BUDGET_EXHAUSTED` and later chunks run with
        whatever budget is left (possibly none).

    Returns
    -------
    BatchSolveResult
        Solutions plus per-column convergence data (including a
        ``status`` array of :class:`SolveStatus` codes) and aggregate
        work.
    """
    if validate and deflate and not isinstance(laplacian, spla.LinearOperator):
        if not is_laplacian(laplacian):
            raise ValueError(
                "laplacian_solve_many(deflate=True, validate=True): input matrix "
                "is not a graph Laplacian (symmetric, non-positive off-diagonal, "
                "zero row sums); pass deflate=False for general SPD systems"
            )
    if sp.issparse(rhs):
        rhs_matrix = rhs.tocsc()
    else:
        rhs_matrix = np.asarray(rhs, dtype=float)
        if rhs_matrix.ndim == 1:
            rhs_matrix = rhs_matrix[:, None]
        if rhs_matrix.ndim != 2:
            raise ValueError(f"rhs must be 2-D, got shape {rhs_matrix.shape}")
    matvec, nnz, n = _matvec_closure(laplacian)
    if rhs_matrix.shape[0] != n:
        raise ValueError(f"rhs must have {n} rows, got {rhs_matrix.shape[0]}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if max_iterations is None:
        max_iterations = max(10 * n, 100)

    # A work budget is stated in flop-equivalent units (same scale as the
    # returned ``work`` field); inside the solver it is enforced on the
    # cumulative column-matvec count, the quantity the inner loop tracks.
    # One column-matvec costs ``nnz`` matrix flops plus the per-column
    # preconditioner work when a preconditioner is attached.
    matvec_budget: Optional[float] = None
    if work_budget is not None:
        if work_budget <= 0:
            raise ValueError(f"work_budget must be positive, got {work_budget}")
        cost_per_column_matvec = float(nnz) + float(precond_work_per_application)
        if cost_per_column_matvec > 0:
            matvec_budget = work_budget / cost_per_column_matvec

    k = rhs_matrix.shape[1]
    x = np.empty((n, k))
    converged = np.empty(k, dtype=bool)
    iterations = np.empty(k, dtype=np.int64)
    residual_norms = np.empty(k)
    status = np.empty(k, dtype=np.int8)
    total_matvecs = 0
    total_precond_apps = 0
    num_blocks = 0
    for start in range(0, k, block_size):
        stop = min(start + block_size, k)
        block = _densify_block(rhs_matrix, start, stop)
        chunk_budget = None
        if matvec_budget is not None:
            # Budget is shared across chunks: later chunks see what's left.
            chunk_budget = max(0.0, matvec_budget - total_matvecs)
        bx, bconv, biter, bres, bmatvecs, bprecond, bstatus = _block_cg(
            matvec,
            block,
            tol,
            max_iterations,
            deflate,
            preconditioner,
            stagnation_window=stagnation_window,
            divergence_limit=divergence_limit,
            matvec_budget=chunk_budget,
        )
        x[:, start:stop] = bx
        converged[start:stop] = bconv
        iterations[start:stop] = biter
        residual_norms[start:stop] = bres
        status[start:stop] = bstatus
        total_matvecs += bmatvecs
        total_precond_apps += bprecond
        num_blocks += 1

    result = BatchSolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norms=residual_norms,
        matvecs=total_matvecs,
        precond_applications=total_precond_apps,
        work=nnz * total_matvecs + precond_work_per_application * total_precond_apps,
        num_blocks=num_blocks,
        status=status,
    )
    if raise_on_failure and not result.all_converged:
        failures = result.failures
        failed = np.flatnonzero(~converged)
        worst = float(residual_norms[failed].max()) if failed.size else 0.0
        detail = "; ".join(str(f) for f in failures[:4])
        if len(failures) > 4:
            detail += f"; ... {len(failures) - 4} more"
        raise ConvergenceError(
            f"blocked CG: {failed.size} of {k} columns failed to reach "
            f"tol={tol} (worst residual {worst:.3e}): {detail}",
            iterations=int(iterations.max(initial=0)),
            residual=worst,
            failures=failures,
        )
    return result
