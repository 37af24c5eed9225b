"""Exact effective resistance computations.

The effective resistance between vertices ``u`` and ``v`` in graph ``G``
is ``R_uv[G] = (e_u - e_v)^T L_G^+ (e_u - e_v)`` — the potential difference
needed to push one unit of current from ``u`` to ``v`` when each edge ``e``
is a resistor of resistance ``1 / w_e``.

Two exact paths are provided:

* **Pseudoinverse path** (``method="pinv"``, the explicit oracle): one
  dense ``L^+``, then all resistances are read off with vectorised
  quadratic forms.
* **Blocked solver path** (``method="solve"``): the requested pairs are
  deduplicated into indicator right-hand-side columns and solved down the
  ladder of :func:`repro.resistance.solver_select.solve_with_degradation`
  — with the default ``solver="cg"``, one sparse factorization when the
  factor gate admits the Laplacian, one dense Cholesky when it rejects a
  Laplacian with ``n <= DENSE_FALLBACK_LIMIT``, else one blocked
  multi-RHS CG pass (:func:`repro.linalg.cg.laplacian_solve_many`),
  chunked to bound memory.  Every chunk of one call shares one gate
  decision and one factorization.  When the pairs reference fewer
  distinct *vertices* than distinct pairs (the all-edges /
  leverage-score case: ``n`` vertices vs ``m`` edges), the solver
  switches to vertex-indicator columns — effectively computing the
  needed columns of ``L^+`` once and reading every resistance off the
  same solution block.

``method="auto"`` (the default) takes the blocked path with
``solver="cg"`` on every graph: below ``_PINV_LIMIT`` the ladder's dense
Cholesky costs a fraction of the eigendecomposition behind ``L^+``.  With
``solver="chain"``, which never factors, it takes the pseudoinverse at
``n <= _PINV_LIMIT`` and the blocked path past it.

The pre-blocking one-solve-per-pair loop is preserved in
:mod:`repro.resistance._reference` for parity tests and benchmarks.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DisconnectedGraphError, GraphError
from repro.graphs.connectivity import connected_components
from repro.graphs.graph import Graph, _pair_array
from repro.graphs.operations import induced_subgraph
from repro.linalg.pseudoinverse import laplacian_pseudoinverse
from repro.resistance.solver_select import (
    DENSE_FALLBACK_LIMIT,
    FactorGate,
    ResistanceSolveStats,
    resolve_solver,
    solve_with_degradation,
)

__all__ = [
    "effective_resistances_of_pairs",
    "effective_resistances_all_edges",
    "leverage_scores",
]

# Largest n at which ``method="auto"`` with ``solver="chain"`` takes the
# dense pseudoinverse: the ladder's own dense limit.
_PINV_LIMIT = DENSE_FALLBACK_LIMIT

# Memory cap for the (n, num_vertex_columns) dense solution block of the
# vertex-indicator path (which must be held whole: every pair reads two of
# its columns); above it the pair-indicator path is used, which solves and
# discards one block_size-wide chunk of pairs at a time.
_VERTEX_BLOCK_BUDGET = 256 * 1024 * 1024  # bytes


def _check_same_component(graph: Graph, pairs_u: np.ndarray, pairs_v: np.ndarray) -> np.ndarray:
    labels = connected_components(graph)
    if np.any(labels[pairs_u] != labels[pairs_v]):
        raise DisconnectedGraphError(
            "effective resistance requested between vertices in different components"
        )
    return labels


def _warn_if_unconverged(solve, tol: float, context: str) -> None:
    """Surface CG columns that missed ``tol`` — these values are not exact.

    The legacy per-pair loop was silent about non-convergence; the blocked
    paths keep returning the best iterate (same contract) but say so, since
    the results are consumed as *exact* resistances by certificates and
    leverage-score sampling.
    """
    if not solve.all_converged:
        bad = int(np.count_nonzero(~solve.converged))
        worst = float(solve.residual_norms[~solve.converged].max())
        warnings.warn(
            f"{bad} of {solve.num_columns} resistance solve columns missed "
            f"tol={tol} ({context}); worst relative residual {worst:.2e} — "
            "treat the affected resistances as approximate",
            stacklevel=4,
        )


def _blocked_pair_resistances(
    graph: Graph,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    block_size: int,
    labels: np.ndarray,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
    gate: Optional[FactorGate] = None,
) -> np.ndarray:
    """Resistances for deduplicated pairs ``(lo[j], hi[j])`` down the solve ladder.

    ``solver`` selects the factor-gated ladder (``"cg"``) or
    chain-preconditioned blocked CG (``"chain"`` — the preconditioner
    chain comes from the process-wide cache and is built at most once per
    graph); see :mod:`repro.resistance.solver_select`.  ``gate`` is the
    caller's factor gate for ``graph`` (``"cg"`` only; built here from
    ``labels`` when ``None``), shared by every chunk so the graph is
    factored at most once.  ``stats`` optionally accumulates per-column
    iteration/matvec/work counts across every inner solve.

    Chooses between two right-hand-side layouts:

    * **vertex-indicator** (``L x = e_v`` for every distinct endpoint):
      fewer columns whenever the pairs reference fewer vertices than pairs
      (all-edges: ``n`` columns instead of ``m``), and every resistance is
      a four-entry read off the shared solution block.  Requires a
      connected graph (``e_v`` is only consistent after deflating the
      global constant) and a solution block within the memory budget; on
      disconnected graphs the pairs are split by component and each
      component's induced subgraph is solved on its own, so a stray
      isolated vertex cannot silently disable the fast path.
    * **pair-indicator** (``L x = e_u - e_v`` per pair): one column per
      deduplicated pair; always consistent, and solved one ``block_size``
      chunk of pairs at a time with each chunk's solution block discarded
      after its resistances are read off, so peak memory stays at
      ``O(n * block_size)`` no matter how many pairs are requested.
    """
    n = graph.num_vertices
    k = lo.size
    vertices = np.unique(np.concatenate([lo, hi]))
    connected = bool(labels.max(initial=0) == 0)
    vertex_path_pays = vertices.size < k
    if vertex_path_pays and not connected:
        # Pairs never straddle components (validated by the caller); solve
        # each component's induced subgraph separately, where the global
        # deflation behind the vertex-indicator path is valid.
        results = np.empty(k)
        pair_component = labels[lo]
        for component in np.unique(pair_component):
            pair_mask = pair_component == component
            ids = np.flatnonzero(labels == component)
            results[pair_mask] = _blocked_pair_resistances(
                induced_subgraph(graph, ids),
                np.searchsorted(ids, lo[pair_mask]),
                np.searchsorted(ids, hi[pair_mask]),
                tol,
                block_size,
                np.zeros(ids.size, dtype=np.int64),
                solver=solver,
                stats=stats,
            )
        return results
    lap = graph.laplacian().tocsr()
    resolved = resolve_solver(solver)
    if gate is None and resolved == "cg":
        gate = FactorGate(lap, labels=labels)
    use_vertex_columns = (
        connected
        and vertex_path_pays
        and n * vertices.size * 8 <= _VERTEX_BLOCK_BUDGET
    )
    if stats is not None:
        stats.solver = resolved
    if use_vertex_columns:
        position = np.empty(n, dtype=np.int64)
        position[vertices] = np.arange(vertices.size)
        rhs = sp.csc_matrix(
            (np.ones(vertices.size), (vertices, np.arange(vertices.size))),
            shape=(n, vertices.size),
        )
        solve = solve_with_degradation(
            graph,
            lap,
            rhs,
            tol=tol,
            block_size=block_size,
            solver=resolved,
            stats=stats,
            gate=gate,
        )
        _warn_if_unconverged(solve, tol, "vertex-indicator columns")
        # Columns of the solve block are L^+ e_v; R_uv reads off four entries.
        x = solve.x
        il, ih = position[lo], position[hi]
        return x[lo, il] + x[hi, ih] - x[lo, ih] - x[hi, il]
    results = np.empty(k)
    for start in range(0, k, block_size):
        stop = min(start + block_size, k)
        chunk_lo = lo[start:stop]
        chunk_hi = hi[start:stop]
        width = stop - start
        arange = np.arange(width)
        rhs = sp.csc_matrix(
            (
                np.concatenate([np.ones(width), -np.ones(width)]),
                (np.concatenate([chunk_lo, chunk_hi]), np.concatenate([arange, arange])),
            ),
            shape=(n, width),
        )
        solve = solve_with_degradation(
            graph,
            lap,
            rhs,
            tol=tol,
            block_size=block_size,
            solver=resolved,
            stats=stats,
            gate=gate,
        )
        _warn_if_unconverged(solve, tol, f"pair-indicator columns {start}:{stop}")
        results[start:stop] = solve.x[chunk_lo, arange] - solve.x[chunk_hi, arange]
    return results


def effective_resistances_of_pairs(
    graph: Graph,
    pairs: Sequence[Tuple[int, int]] | np.ndarray,
    method: str = "auto",
    tol: float = 1e-10,
    block_size: int = 128,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
) -> np.ndarray:
    """Effective resistances for an explicit list of vertex pairs.

    Repeated pairs (in either orientation) are deduplicated before any
    solve, so probes that hit the same pair twice pay for one solve.

    Parameters
    ----------
    graph:
        Input graph.
    pairs:
        Sequence of ``(u, v)`` vertex pairs (or an ``(k, 2)`` array) with
        integral endpoints; any other shape raises
        :class:`~repro.exceptions.GraphError`, as do non-integral
        endpoints (``0.5``; ``2.0`` is accepted).
    method:
        ``"pinv"``, ``"solve"``, or ``"auto"`` (the blocked solve with
        ``solver="cg"``, whose ladder factors every graph up to
        ``_PINV_LIMIT``; with ``solver="chain"``, which never factors,
        pinv for every ``n <= _PINV_LIMIT``).
    tol:
        Relative residual tolerance of every solved column (factor and CG
        rungs alike).
    block_size:
        Columns per chunk of the blocked solve (bounds peak memory).
    solver:
        ``"cg"`` (the default: one sparse factorization when the factor
        gate admits the Laplacian, one dense Cholesky when it rejects one
        with ``n <= _PINV_LIMIT``, else plain blocked CG) or ``"chain"``
        (chain-preconditioned blocked CG with a cached Peng–Spielman
        chain); see :mod:`repro.resistance.solver_select`.  Ignored on the
        pinv path.
    stats:
        Optional :class:`~repro.resistance.solver_select.ResistanceSolveStats`
        accumulating iteration/matvec/work counts of the inner solves.
    """
    pair_arr = _pair_array(pairs)
    if pair_arr.size == 0:
        return np.zeros(0)
    n = graph.num_vertices
    if pair_arr.min() < 0 or pair_arr.max() >= n:
        raise GraphError("pair indices out of range")
    if np.any(pair_arr[:, 0] == pair_arr[:, 1]):
        raise GraphError("effective resistance of a vertex with itself is zero/undefined; remove such pairs")
    labels = _check_same_component(graph, pair_arr[:, 0], pair_arr[:, 1])
    if method not in ("auto", "pinv", "solve"):
        raise ValueError(f"unknown method {method!r}; expected 'pinv', 'solve', or 'auto'")

    # One gate decision per call, shared by every chunk of the blocked path.
    gate = None
    if method != "pinv" and resolve_solver(solver) == "cg":
        gate = FactorGate(graph.laplacian(), labels=labels)
    if method == "auto":
        method = "solve" if gate is not None or n > _PINV_LIMIT else "pinv"
    if method == "pinv":
        pinv = laplacian_pseudoinverse(graph.laplacian())
        uu = pair_arr[:, 0]
        vv = pair_arr[:, 1]
        return pinv[uu, uu] + pinv[vv, vv] - 2.0 * pinv[uu, vv]
    # Normalise orientation (resistance is symmetric) and deduplicate:
    # every distinct pair costs exactly one RHS column.
    lo = np.minimum(pair_arr[:, 0], pair_arr[:, 1])
    hi = np.maximum(pair_arr[:, 0], pair_arr[:, 1])
    keys = lo * np.int64(n) + hi
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    unique_lo = unique_keys // n
    unique_hi = unique_keys % n
    unique_res = _blocked_pair_resistances(
        graph, unique_lo, unique_hi, tol, block_size, labels,
        solver=solver, stats=stats, gate=gate,
    )
    return unique_res[inverse]


def effective_resistances_all_edges(
    graph: Graph,
    method: str = "auto",
    tol: float = 1e-10,
    block_size: int = 128,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
) -> np.ndarray:
    """Effective resistance ``R_e[G]`` of every edge of the graph.

    Returns an array aligned with the graph's edge arrays.  The
    ``"solve"`` path runs over deduplicated indicator columns (vertex
    columns on connected graphs — ``n`` solves instead of ``m``) down the
    solve ladder: one sparse factorization on low-fill graphs, one dense
    Cholesky on other graphs up to ``_PINV_LIMIT``, blocked CG past it,
    so leverage scores stay affordable at the scales the
    spanner and CONGEST benchmarks reach.  ``method``, ``solver`` and
    ``stats`` choose and instrument the path exactly as in
    :func:`effective_resistances_of_pairs`.
    """
    if graph.num_edges == 0:
        return np.zeros(0)
    pairs = np.stack([graph.edge_u, graph.edge_v], axis=1)
    return effective_resistances_of_pairs(
        graph, pairs, method=method, tol=tol, block_size=block_size,
        solver=solver, stats=stats,
    )


def leverage_scores(
    graph: Graph,
    method: str = "auto",
    tol: float = 1e-10,
    block_size: int = 128,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
) -> np.ndarray:
    """Leverage scores ``tau_e = w_e * R_e[G]`` for every edge.

    These lie in (0, 1]; they sum to ``n - c`` (number of vertices minus
    number of components) and are exactly the sampling probabilities used
    by Spielman–Srivastava.  Lemma 1 is a uniform upper bound on the
    leverage scores of edges outside a t-bundle spanner.
    """
    resistances = effective_resistances_all_edges(
        graph, method=method, tol=tol, block_size=block_size,
        solver=solver, stats=stats,
    )
    return graph.edge_weights * resistances
