"""Linear-algebra substrate: SDD matrices, iterative solvers, eigen tools.

This subpackage supplies the numerical machinery that both the effective
resistance computations and the Peng--Spielman solver framework depend on:

* :mod:`repro.linalg.sdd` — recognising SDD matrices and reducing an SDD
  system to a Laplacian system (the classical reduction).
* :mod:`repro.linalg.cg` — conjugate gradient, preconditioned CG and
  blocked multi-RHS CG with explicit iteration/work accounting.
* :mod:`repro.linalg.pseudoinverse` — dense pseudoinverse helpers for exact
  small-scale reference computations.
* :mod:`repro.linalg.eigen` — extreme (generalised) eigenvalue estimation
  used to *measure* spectral approximation quality.
"""

from repro.linalg.sdd import (
    SDDMatrix,
    is_sdd,
    is_spd_sdd,
    laplacian_of_sdd,
    sdd_to_laplacian_system,
    recover_sdd_solution,
)
from repro.linalg.cg import (
    BatchSolveResult,
    SolveResult,
    conjugate_gradient,
    laplacian_solve,
    laplacian_solve_many,
)
from repro.linalg.pseudoinverse import laplacian_pseudoinverse, solve_via_pseudoinverse
from repro.linalg.eigen import (
    extreme_generalized_eigenvalues,
    relative_condition_number,
    smallest_nonzero_eigenvalue,
    largest_eigenvalue,
)

__all__ = [
    "SDDMatrix",
    "is_sdd",
    "is_spd_sdd",
    "laplacian_of_sdd",
    "sdd_to_laplacian_system",
    "recover_sdd_solution",
    "BatchSolveResult",
    "SolveResult",
    "conjugate_gradient",
    "laplacian_solve",
    "laplacian_solve_many",
    "laplacian_pseudoinverse",
    "solve_via_pseudoinverse",
    "extreme_generalized_eigenvalues",
    "relative_condition_number",
    "smallest_nonzero_eigenvalue",
    "largest_eigenvalue",
]
