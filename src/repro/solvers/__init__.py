"""Parallel SDD solver built on the Peng–Spielman framework (Theorem 6).

The Peng–Spielman framework reduces solving ``M x = b`` with
``M = D - A`` (SDD) to solving a chain of progressively better-conditioned
systems ``M_{i+1} ≈ D_i - A_i D_i^{-1} A_i``, using the identity

    M^{-1} = 1/2 [ D^{-1} + (I + D^{-1} A)(D - A D^{-1} A)^{-1}(I + A D^{-1}) ].

Each level's matrix would densify (two-hop cliques), so it is sparsified —
in this package with ``PARALLELSPARSIFY`` — before recursing, which is the
paper's Theorem 6 improvement.

Modules
-------
``chain``
    Chain levels, chain construction (with or without sparsification), and
    the recursive chain application (the approximate inverse operator).
``peng_spielman``
    End-user solver: Laplacian and general SDD systems, chain-preconditioned
    CG, plus plain-CG / Jacobi-CG baselines for the benchmarks.
``work_model``
    Work accounting (chain size, per-application cost, construction cost).
"""

from repro.solvers.chain import (
    ChainCache,
    ChainLevel,
    InverseChain,
    apply_chain,
    build_inverse_chain,
    build_preconditioner_chain,
    chain_preconditioner,
    default_chain_cache,
)
from repro.solvers.peng_spielman import (
    SDDSolveReport,
    solve_laplacian,
    solve_sdd,
    baseline_cg_solve,
    baseline_jacobi_cg_solve,
)
from repro.solvers.work_model import ChainWorkModel, chain_work_model

__all__ = [
    "ChainCache",
    "ChainLevel",
    "InverseChain",
    "apply_chain",
    "build_inverse_chain",
    "build_preconditioner_chain",
    "chain_preconditioner",
    "default_chain_cache",
    "SDDSolveReport",
    "solve_laplacian",
    "solve_sdd",
    "baseline_cg_solve",
    "baseline_jacobi_cg_solve",
    "ChainWorkModel",
    "chain_work_model",
]
