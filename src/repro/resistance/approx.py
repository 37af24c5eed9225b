"""Approximate effective resistances via Johnson–Lindenstrauss sketching.

This is the Spielman–Srivastava construction: effective resistances are
pairwise squared distances between the columns of ``W^{1/2} B L^+``, so
projecting onto ``O(log n / delta^2)`` random directions preserves them to
a ``(1 ± delta)`` factor.  Each random direction costs one Laplacian solve;
the solves for all directions are batched down the solve ladder of
:func:`repro.resistance.solver_select.solve_with_degradation` (one
factorization, built once per call: sparse on low-fill graphs, a dense
Cholesky on other graphs up to ``DENSE_FALLBACK_LIMIT`` vertices; the
blocked multi-RHS CG solver past that): each direction's
sign vector comes from its own generator spawned once from the seed (so a
fixed seed gives the same sketch for *any* ``block_size``), a block of
sign vectors is scattered into ``(n, block)`` right-hand sides with one
sparse incidence multiply, and the chunk is solved and reduced before the
next is drawn — peak memory stays ``O((n + m) * block_size)`` however
many directions the JL bound demands.  The pre-blocking
one-solve-per-direction loop survives in
:mod:`repro.resistance._reference` for parity tests and benchmarks.

The baseline sparsifier (:mod:`repro.baselines.spielman_srivastava`) uses
this routine; the paper's own algorithm never needs it — that is its point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.resistance.solver_select import (
    FactorGate,
    FallbackEvent,
    ResistanceSolveStats,
    resolve_solver,
    solve_with_degradation,
)
from repro.utils.rng import SeedLike, as_rng, split_rng

__all__ = [
    "ApproxResistanceResult",
    "approximate_effective_resistances_detailed",
    "jl_direction_count",
]


def jl_direction_count(num_vertices: int, delta: float) -> int:
    """Number of JL directions ``ceil(24 ln n / delta^2)`` for accuracy ``delta``."""
    if not 0 < delta < 1:
        raise GraphError(f"delta must lie in (0, 1), got {delta}")
    return int(np.ceil(24.0 * np.log(max(num_vertices, 2)) / (delta * delta)))


@dataclass
class ApproxResistanceResult:
    """JL-sketched resistances plus the accuracy actually achieved.

    Attributes
    ----------
    resistances:
        Approximate ``R_e[G]`` aligned with the edge arrays.
    num_directions:
        Random projections actually used.
    delta_target:
        Requested accuracy (None when an explicit direction count was
        given without a delta interpretation).
    delta_effective:
        Accuracy implied by ``num_directions`` through the JL bound
        ``k = 24 ln n / delta^2`` — equals ``delta_target`` when the
        default count is used, larger when fewer directions were forced.
    solver_converged:
        True if every inner Laplacian solve column converged.
    matvecs:
        Total column matrix-vector products spent in the solves.
    work:
        Estimated arithmetic work of the solves (``nnz * matvecs`` plus
        any preconditioner cost charged by the blocked solver).
    solver:
        Resolved inner solver actually used (``"cg"`` or ``"chain"``).
    iterations_total:
        Total CG iterations summed over every solve column.
    precond_applications:
        Total column preconditioner applications (0 on the plain path).
    fallbacks:
        :class:`~repro.resistance.solver_select.FallbackEvent` records for
        every degradation-ladder rung the inner solves took (empty on the
        happy path) — a sketch built on a degraded solve says so.
    """

    resistances: np.ndarray
    num_directions: int
    delta_target: Optional[float]
    delta_effective: float
    solver_converged: bool = True
    matvecs: int = 0
    work: float = 0.0
    solver: str = "cg"
    iterations_total: int = 0
    precond_applications: int = 0
    fallbacks: Tuple[FallbackEvent, ...] = ()


def _effective_delta(num_vertices: int, num_directions: int) -> float:
    """Invert the JL bound: the delta that ``num_directions`` buys at this n."""
    return float(np.sqrt(24.0 * np.log(max(num_vertices, 2)) / max(num_directions, 1)))


def approximate_effective_resistances_detailed(
    graph: Graph,
    delta: float = 0.3,
    num_directions: Optional[int] = None,
    seed: SeedLike = None,
    solver_tol: float = 1e-8,
    block_size: int = 128,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
) -> ApproxResistanceResult:
    """Approximate ``R_e[G]`` for every edge via blocked JL sketching.

    Parameters
    ----------
    graph:
        Connected weighted graph.
    delta:
        Target relative accuracy of the JL embedding; the number of random
        projections is ``ceil(24 ln n / delta^2)`` unless overridden.
        The count is *not* capped at the edge count: sparse graphs
        (``m < 24 ln n / delta^2``) genuinely need more directions than
        edges for the (1 ± delta) guarantee to hold.
    num_directions:
        Explicit number of random projections (overrides ``delta``; the
        result then records ``delta_target = None``).  The accuracy the
        count actually buys is always recorded as ``delta_effective``,
        and a count too small for *any* (1 ± delta) guarantee
        (``delta_effective >= 1``) emits a warning.
    seed:
        RNG seed.  Every direction draws its signs from its own generator
        spawned up front from this seed, so a fixed seed gives the same
        sketch regardless of ``block_size``.
    solver_tol:
        Relative tolerance of the inner blocked Laplacian solves.
    block_size:
        Directions solved simultaneously per chunk (bounds peak memory at
        ``O((n + m) * block_size)``).
    solver:
        Inner solver choice — ``"cg"`` (the default: one factorization,
        shared by every chunk, when the factor gate takes the Laplacian,
        else plain blocked CG) or ``"chain"`` (chain-preconditioned, chain
        cached per graph); see :mod:`repro.resistance.solver_select`.
    stats:
        Optional :class:`~repro.resistance.solver_select.ResistanceSolveStats`
        accumulating iteration/matvec/work counts of the inner solves.
    """
    if not 0 < delta < 1:
        raise GraphError(f"delta must lie in (0, 1), got {delta}")
    delta_target: Optional[float] = delta
    if num_directions is not None:
        num_directions = int(num_directions)
        if num_directions < 1:
            raise GraphError(f"num_directions must be >= 1, got {num_directions}")
        delta_target = None  # explicit count overrides the delta target
    if graph.num_edges == 0:
        return ApproxResistanceResult(
            resistances=np.zeros(0),
            num_directions=num_directions or 0,
            delta_target=delta_target,
            delta_effective=0.0,
        )
    rng = as_rng(seed)
    n = graph.num_vertices
    m = graph.num_edges
    if num_directions is None:
        num_directions = jl_direction_count(n, delta)
    delta_effective = _effective_delta(n, num_directions)
    # The default count satisfies its own delta by construction, so the only
    # accuracy problem worth flagging is an explicit count too small for any
    # guarantee at all.
    if delta_effective >= 1.0:
        warnings.warn(
            f"{num_directions} JL directions give delta_effective ~= "
            f"{delta_effective:.2f} >= 1 at n = {n}: the sketch carries no "
            "(1 +- delta) guarantee (need "
            f"{jl_direction_count(n, 0.999)}+ directions)",
            stacklevel=2,
        )

    lap = graph.laplacian().tocsr()
    sqrt_w = np.sqrt(graph.edge_weights)
    u = graph.edge_u
    v = graph.edge_v
    # Weight-scaled transposed incidence (n, m): column e holds
    # +-sqrt(w_e) at the endpoints.  One sparse multiply scatters a block
    # of sign vectors into Laplacian right-hand sides.
    incidence = graph.incidence().multiply(sqrt_w[:, None]).T.tocsr()

    # One spawned generator per direction: the sign matrix is logically
    # drawn "all at once" from the seed, but only one block_size-wide slab
    # of it is ever materialized (int8: +-1), keeping memory bounded.
    direction_rngs = split_rng(rng, num_directions)

    resolved = resolve_solver(solver)
    # One gate decision and at most one factorization for every chunk.
    gate = FactorGate(lap) if resolved == "cg" else None
    # The degradation ladder reports its rungs on a stats accumulator; run
    # one locally when the caller passed none so fallbacks still reach the
    # result's ``fallbacks`` field.
    ladder_stats = stats if stats is not None else ResistanceSolveStats()
    fallbacks_before = len(ladder_stats.fallbacks)
    ladder_stats.solver = resolved

    scale = 1.0 / np.sqrt(num_directions)
    resistance_estimate = np.zeros(m)
    matvecs = 0
    precond_applications = 0
    iterations_total = 0
    work = 0.0
    converged = True
    for start in range(0, num_directions, block_size):
        stop = min(start + block_size, num_directions)
        signs = np.empty((stop - start, m), dtype=np.int8)
        for j in range(start, stop):
            signs[j - start] = direction_rngs[j].integers(0, 2, size=m, dtype=np.int8)
        np.multiply(signs, 2, out=signs)
        np.subtract(signs, 1, out=signs)
        # y_j = B^T W^{1/2} q_j for each direction j in the chunk.
        rhs = incidence @ (signs.T * scale)
        solve = solve_with_degradation(
            graph,
            lap,
            rhs,
            tol=solver_tol,
            block_size=block_size,
            solver=resolved,
            stats=ladder_stats,
            gate=gate,
        )
        diff = solve.x[u, :] - solve.x[v, :]
        resistance_estimate += np.einsum("ij,ij->i", diff, diff)
        matvecs += solve.matvecs
        precond_applications += solve.precond_applications
        iterations_total += int(solve.iterations.sum())
        work += solve.work
        converged = converged and solve.all_converged
    return ApproxResistanceResult(
        resistances=resistance_estimate,
        num_directions=num_directions,
        delta_target=delta_target,
        delta_effective=delta_effective,
        solver_converged=converged,
        matvecs=matvecs,
        work=work,
        solver=resolved,
        iterations_total=iterations_total,
        precond_applications=precond_applications,
        fallbacks=tuple(ladder_stats.fallbacks[fallbacks_before:]),
    )

