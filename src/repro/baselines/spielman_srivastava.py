"""Spielman–Srivastava effective-resistance sampling [23].

The scheme: fix a number of samples ``q``; draw ``q`` edges independently
with replacement with probabilities ``p_e ∝ w_e R_e`` (the leverage
scores); each drawn copy of edge ``e`` is added with weight
``w_e / (q p_e)``.  With ``q = O(n log n / eps^2)`` the result is a
``(1 ± eps)`` sparsifier w.h.p.

The resistances can be exact (one factorization of the Laplacian on
small or low-fill graphs, one blocked multi-RHS CG pass past that) or
approximate (JL sketching; the original paper's approach, implemented in
:mod:`repro.resistance.approx`) — either way the scheme needs a Laplacian
solver, which is the dependence the spanner-based algorithm avoids.  Both
paths run down the solve ladder of
:mod:`repro.resistance.solver_select`, whose blocked CG
(:func:`repro.linalg.cg.laplacian_solve_many`) is what makes
leverage-score sampling feasible at the n >= 4096 scales the ROADMAP
baselines reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.resistance.approx import approximate_effective_resistances_detailed
from repro.resistance.exact import effective_resistances_all_edges
from repro.utils.rng import SeedLike, as_rng

__all__ = ["SSResult", "spielman_srivastava_sparsify", "ss_sample_count"]


@dataclass
class SSResult:
    """Output of the Spielman–Srivastava sampler.

    Carries ``sparsifier``, ``input_edges`` and ``output_edges``, the
    fields :class:`~repro.api.result.UnifiedResult` is built from; the
    reduction is ``UnifiedResult.reduction_factor``.

    ``resistance_delta_effective`` records the JL accuracy the sketch
    actually achieved (None on the exact path).
    """

    sparsifier: Graph
    num_samples: int
    epsilon: float
    probabilities: np.ndarray
    resistances: np.ndarray
    solver_based: bool
    input_edges: int = 0
    resistance_delta_effective: Optional[float] = None

    @property
    def output_edges(self) -> int:
        """Distinct edges kept (sampling draws with replacement, copies merge)."""
        return self.sparsifier.num_edges


def ss_sample_count(num_vertices: int, epsilon: float, constant: float = 9.0) -> int:
    """Number of samples ``q = constant * n * ln(n) / eps^2``.

    The constant in [23] is an absolute constant hidden in O(); 9 gives
    reliable (1 ± eps) behaviour on the graph families in the benchmarks
    while keeping the comparison fair (the paper's own algorithm is also
    run with measured rather than worst-case constants).
    """
    if epsilon <= 0:
        raise SparsificationError("epsilon must be positive")
    n = max(num_vertices, 2)
    return max(1, int(np.ceil(constant * n * np.log(n) / (epsilon * epsilon))))


def spielman_srivastava_sparsify(
    graph: Graph,
    epsilon: float = 0.5,
    num_samples: Optional[int] = None,
    use_approximate_resistances: bool = False,
    resistance_delta: float = 0.3,
    seed: SeedLike = None,
    sample_constant: float = 9.0,
    resistance_method: str = "auto",
    resistance_tol: float = 1e-8,
    block_size: int = 128,
    solver: str = "cg",
) -> SSResult:
    """Sparsify ``graph`` by effective-resistance importance sampling.

    Parameters
    ----------
    graph:
        Connected weighted graph.
    epsilon:
        Target approximation parameter.
    num_samples:
        Explicit sample count ``q`` (default :func:`ss_sample_count`).
    use_approximate_resistances:
        Use JL-sketched resistances (the solver-based path of [23]) rather
        than exact resistances.
    resistance_delta:
        Accuracy of the sketched resistances; the sampler compensates by
        oversampling with factor ``(1 + delta)``.
    seed:
        RNG seed.
    sample_constant:
        Constant in the default sample count.
    resistance_method:
        Exact-path resistance method: ``"auto"`` (the solve ladder; with
        ``solver="chain"``, the dense pseudoinverse up to
        ``DENSE_FALLBACK_LIMIT`` vertices), ``"pinv"``, or ``"solve"``.
    resistance_tol:
        Solver tolerance of the exact blocked-CG path.  Sampling
        probabilities only need a handful of accurate digits, so this is
        looser than the 1e-10 default of the measurement paths.
    block_size:
        Columns per chunk of the blocked solves (both paths).
    solver:
        Inner blocked-solver choice for the resistance computation on
        either path — ``"cg"`` (the factor → CG ladder, the default) or
        ``"chain"`` (chain-preconditioned); see
        :mod:`repro.resistance.solver_select`.
    """
    if graph.num_edges == 0:
        return SSResult(
            sparsifier=graph,
            num_samples=0,
            epsilon=epsilon,
            probabilities=np.zeros(0),
            resistances=np.zeros(0),
            solver_based=use_approximate_resistances,
            input_edges=0,
        )
    rng = as_rng(seed)
    n = graph.num_vertices
    if num_samples is None:
        num_samples = ss_sample_count(n, epsilon, constant=sample_constant)

    delta_effective: Optional[float] = None
    if use_approximate_resistances:
        sketched = approximate_effective_resistances_detailed(
            graph, delta=resistance_delta, seed=rng, block_size=block_size,
            solver=solver,
        )
        resistances = sketched.resistances
        delta_effective = sketched.delta_effective
        oversample = 1.0 + resistance_delta
    else:
        resistances = effective_resistances_all_edges(
            graph, method=resistance_method, tol=resistance_tol, block_size=block_size,
            solver=solver,
        )
        oversample = 1.0

    scores = np.maximum(graph.edge_weights * resistances, 1e-15)
    probabilities = scores / scores.sum()
    q = int(np.ceil(num_samples * oversample))

    counts = rng.multinomial(q, probabilities)
    chosen = np.flatnonzero(counts)
    # Each copy of edge e contributes weight w_e / (q p_e); summing copies
    # gives counts * w_e / (q p_e).
    new_weights = (
        counts[chosen] * graph.edge_weights[chosen] / (q * probabilities[chosen])
    )
    sparsifier = Graph(
        n, graph.edge_u[chosen], graph.edge_v[chosen], new_weights
    )
    return SSResult(
        sparsifier=sparsifier,
        num_samples=q,
        epsilon=epsilon,
        probabilities=probabilities,
        resistances=resistances,
        solver_based=use_approximate_resistances,
        input_edges=graph.num_edges,
        resistance_delta_effective=delta_effective,
    )
