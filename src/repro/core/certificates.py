"""Measured spectral-approximation certificates.

The experiments never *assume* Theorem 4/5 hold — they measure the actual
approximation factor of each produced sparsifier.  A
:class:`SpectralCertificate` records the extreme generalised eigenvalues
``lambda_min, lambda_max`` of the pencil ``(L_H, L_G)`` restricted to
``range(L_G)``; these are exactly the best constants for which
``lambda_min * G ⪯ H ⪯ lambda_max * G``, so

* the certificate ``holds within epsilon`` iff
  ``1 - eps <= lambda_min`` and ``lambda_max <= 1 + eps``;
* the symmetric quality measure reported in the E1–E12 tables of
  ``benchmarks/`` is ``max(1 - lambda_min, lambda_max - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphs.connectivity import connected_components, sample_component_pairs
from repro.graphs.graph import Graph, _pair_array
from repro.linalg.eigen import extreme_generalized_eigenvalues
from repro.resistance.exact import effective_resistances_of_pairs
from repro.resistance.solver_select import ResistanceSolveStats
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "SpectralCertificate",
    "ResistanceCertificate",
    "certify_approximation",
    "certify_resistances",
]


@dataclass(frozen=True)
class SpectralCertificate:
    """Best constants ``lower * G ⪯ H ⪯ upper * G`` for a sparsifier pair."""

    lower: float
    upper: float

    @property
    def epsilon_achieved(self) -> float:
        """Smallest epsilon for which the (1 ± eps) guarantee holds."""
        return max(1.0 - self.lower, self.upper - 1.0)

    @property
    def condition_number(self) -> float:
        """Relative condition number ``upper / lower`` of the pair."""
        if self.lower <= 0:
            return float("inf")
        return self.upper / self.lower

    def holds(self, epsilon: float, slack: float = 1e-7) -> bool:
        """True if ``(1 - eps) G ⪯ H ⪯ (1 + eps) G`` (up to numerical slack)."""
        return (self.lower >= 1.0 - epsilon - slack) and (self.upper <= 1.0 + epsilon + slack)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpectralCertificate(lower={self.lower:.4f}, upper={self.upper:.4f}, "
            f"eps_achieved={self.epsilon_achieved:.4f})"
        )


def certify_approximation(
    original: Graph,
    sparsifier: Graph,
    null_space_tol: float = 1e-9,
) -> SpectralCertificate:
    """Measure the spectral approximation of ``sparsifier`` relative to ``original``.

    Both graphs must share the vertex set.  The computation forms both
    Laplacians and solves the generalised eigenproblem on the range of the
    original's Laplacian (dense for small graphs, projected subspace
    estimate for large ones — see :mod:`repro.linalg.eigen`).
    """
    if original.num_vertices != sparsifier.num_vertices:
        raise ValueError(
            "graphs must share a vertex set: "
            f"{original.num_vertices} vs {sparsifier.num_vertices}"
        )
    lower, upper = extreme_generalized_eigenvalues(
        sparsifier.laplacian(), original.laplacian(), null_space_tol=null_space_tol
    )
    return SpectralCertificate(lower=float(lower), upper=float(upper))


@dataclass(frozen=True)
class ResistanceCertificate:
    """Measured effective-resistance preservation over probe pairs.

    A ``(1 ± eps)`` spectral sparsifier necessarily keeps every ratio
    ``R_H(u, v) / R_G(u, v)`` inside ``[1/(1+eps), 1/(1-eps)]``, so probe
    ratios outside that band *refute* the certificate — this is the
    necessary-condition check that stays affordable at the large ``n``
    where the dense eigensolve behind :class:`SpectralCertificate` does
    not (each probe batch is one blocked multi-RHS Laplacian solve).

    ``ratio_max`` is ``inf`` when a probe pair is disconnected in the
    sparsifier, and both ratios are NaN when no probe pair exists (e.g. an
    all-singleton graph).
    """

    ratio_min: float
    ratio_max: float
    num_pairs_requested: int
    num_pairs_used: int

    @property
    def epsilon_refuted_below(self) -> float:
        """Largest epsilon the probes *rule out* (0 if none, NaN if no probes).

        Any (1 ± eps) sparsifier needs ``eps`` at least this large to be
        consistent with the measured ratios; a necessary — not sufficient
        — bound, the resistance-side analogue of
        :attr:`SpectralCertificate.epsilon_achieved`.
        """
        if self.num_pairs_used == 0:
            return float("nan")
        bound = 0.0
        if self.ratio_min < 1.0:
            bound = max(bound, 1.0 / max(self.ratio_min, 1e-300) - 1.0)
        if self.ratio_max > 1.0:
            bound = max(bound, 1.0 - 1.0 / self.ratio_max)
        return float(bound)

    def holds(self, epsilon: float, slack: float = 1e-7) -> bool:
        """True if every probe ratio is consistent with a (1 ± eps) certificate.

        Vacuously True with zero probes (nothing measured refutes nothing)
        — check ``num_pairs_used`` before treating the answer as evidence,
        exactly as ``epsilon_refuted_below`` returns NaN for that state.
        """
        if self.num_pairs_used == 0:
            return True
        # The lower bound R_H/R_G >= 1/(1+eps) binds for every epsilon; the
        # upper bound 1/(1-eps) only constrains below eps = 1 (past that it
        # merely requires finite ratios, i.e. no disconnected probe pair).
        if self.ratio_min < 1.0 / (1.0 + epsilon) - slack:
            return False
        if epsilon >= 1.0:
            return bool(np.isfinite(self.ratio_max))
        return self.ratio_max <= 1.0 / (1.0 - epsilon) + slack


def certify_resistances(
    original: Graph,
    sparsifier: Graph,
    num_pairs: int = 32,
    seed: SeedLike = None,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    method: str = "auto",
    tol: float = 1e-10,
    block_size: int = 128,
    solver: str = "cg",
    stats: Optional[ResistanceSolveStats] = None,
) -> ResistanceCertificate:
    """Measure resistance preservation of ``sparsifier`` over probe pairs.

    Probe pairs are drawn *within* the original graph's connected
    components (direct sampling — the requested count is met whenever any
    component has two vertices, even on graphs with many small
    components).  Explicit ``pairs`` must be shaped ``(k, 2)`` with
    integral endpoints, or :class:`~repro.exceptions.GraphError` is
    raised; an empty sequence gives the vacuous certificate.  Pairs that
    end up disconnected in the sparsifier are reported as an infinite
    ratio rather than an error.  Both graphs'
    resistances are computed through the blocked solver paths, so the
    certificate is usable far past the dense-eigensolve limit.

    ``solver`` selects the inner solver (``"cg"`` or ``"chain"`` — see
    :mod:`repro.resistance.solver_select`).  With the default ``"cg"``,
    each graph is factored once and answered exactly when its factor
    gate takes it: sparsely when its reverse Cuthill–McKee envelope is at
    most ``nnz(L)`` (banded and path-like graphs), by a dense Cholesky
    when the envelope rejects it and ``n <= DENSE_FALLBACK_LIMIT`` (dense
    ER graphs, grids).  Only rejected graphs past that limit run plain
    blocked CG, and a sparsifier can take another rung than its original.
    Each graph's components are labelled once per call: the probe draw
    and the solves share the labels cached on the graph.  With the
    chain-preconditioned choice the original's and the sparsifier's
    chains are each built at most once per process thanks to the shared
    chain cache, so repeated certification stays cheap.

    ``stats`` optionally accumulates the inner solves' iteration/work
    counts, the factorizations, *and* any
    :class:`~repro.resistance.solver_select.FallbackEvent` taken on the
    graceful-degradation ladder (``factor → cg → pinv`` or
    ``chain → cg → pinv``) — inspect ``stats.fallbacks`` to know whether
    the certificate's solves ran degraded.
    """
    if original.num_vertices != sparsifier.num_vertices:
        raise ValueError(
            "graphs must share a vertex set: "
            f"{original.num_vertices} vs {sparsifier.num_vertices}"
        )
    rng = as_rng(seed)
    if pairs is None:
        labels = connected_components(original)
        pair_arr = sample_component_pairs(labels, num_pairs, rng)
        requested = num_pairs
    else:
        pair_arr = _pair_array(pairs)
        requested = pair_arr.shape[0]
    if pair_arr.shape[0] == 0:
        return ResistanceCertificate(
            ratio_min=float("nan"),
            ratio_max=float("nan"),
            num_pairs_requested=requested,
            num_pairs_used=0,
        )
    original_resistances = effective_resistances_of_pairs(
        original, pair_arr, method=method, tol=tol, block_size=block_size,
        solver=solver, stats=stats,
    )
    sparsifier_labels = connected_components(sparsifier)
    connected_in_sparsifier = (
        sparsifier_labels[pair_arr[:, 0]] == sparsifier_labels[pair_arr[:, 1]]
    )
    ratios = np.full(pair_arr.shape[0], np.inf)
    if connected_in_sparsifier.any():
        sparsifier_resistances = effective_resistances_of_pairs(
            sparsifier,
            pair_arr[connected_in_sparsifier],
            method=method,
            tol=tol,
            block_size=block_size,
            solver=solver,
            stats=stats,
        )
        ratios[connected_in_sparsifier] = sparsifier_resistances / np.maximum(
            original_resistances[connected_in_sparsifier], 1e-300
        )
    return ResistanceCertificate(
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        num_pairs_requested=requested,
        num_pairs_used=int(pair_arr.shape[0]),
    )
