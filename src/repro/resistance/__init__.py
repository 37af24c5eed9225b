"""Effective resistance machinery.

The graph-as-resistor-network view is the analytical heart of the paper:
Lemma 1 certifies upper bounds on ``w_e * R_e[G]`` (the *leverage score*
of edge e) from a t-bundle spanner, and those bounds justify uniform
sampling.  This subpackage provides

* exact effective resistances (dense pseudoinverse, or deduplicated
  indicator columns solved by one sparse factorization on low-fill
  graphs, one dense Cholesky on other graphs up to
  ``DENSE_FALLBACK_LIMIT`` vertices, and one blocked multi-RHS CG pass
  past that),
* Johnson–Lindenstrauss-sketched approximate resistances in the style of
  Spielman–Srivastava (used by the baseline sparsifier), batched through
  the same blocked solver,
* the stretch of edges over a subgraph, and the spanner-certified
  resistance upper bounds of Lemma 1.
"""

from repro.resistance.exact import (
    effective_resistances_all_edges,
    effective_resistances_of_pairs,
    leverage_scores,
)
from repro.resistance.solver_select import (
    DENSE_FALLBACK_LIMIT,
    FACTOR_ENVELOPE_LIMIT,
    SOLVER_CHOICES,
    FactorGate,
    FallbackEvent,
    ResistanceSolveStats,
    chain_preconditioner_for,
    resolve_solver,
    solve_with_degradation,
)
from repro.resistance.approx import (
    ApproxResistanceResult,
    approximate_effective_resistances_detailed,
    jl_direction_count,
)
from repro.resistance.stretch import stretch_over_subgraph, bundle_leverage_bound

__all__ = [
    "effective_resistances_all_edges",
    "effective_resistances_of_pairs",
    "leverage_scores",
    "SOLVER_CHOICES",
    "DENSE_FALLBACK_LIMIT",
    "FACTOR_ENVELOPE_LIMIT",
    "FactorGate",
    "FallbackEvent",
    "ResistanceSolveStats",
    "chain_preconditioner_for",
    "resolve_solver",
    "solve_with_degradation",
    "ApproxResistanceResult",
    "approximate_effective_resistances_detailed",
    "jl_direction_count",
    "stretch_over_subgraph",
    "bundle_leverage_bound",
]
