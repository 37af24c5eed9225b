"""Spectral quality measurements for sparsifier outputs.

The :class:`repro.core.certificates.SpectralCertificate` gives the extreme
generalised eigenvalues; the helpers here add the complementary views the
experiments report:

* sampled quadratic-form ratios ``x^T L_H x / x^T L_G x`` over random test
  vectors (a cheap, solver-free sanity check that also exercises the
  Laplacian quadratic-form fast path),
* effective-resistance preservation across a set of probe vertex pairs
  (sparsifiers preserve all resistances within ``(1 ± eps)^{-1}`` factors),
  measured through the blocked multi-RHS solver so it stays usable at the
  scales the spanner and CONGEST benchmarks reach,
* connectivity preservation (a spectral sparsifier of a connected graph
  must be connected).

Probe-based measurements report *how many probes were actually used*: a
degenerate input that skips every probe yields NaN bounds and a zero
count, never a silent "perfect" (1.0, 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.certificates import (
    SpectralCertificate,
    certify_approximation,
    certify_resistances,
)
from repro.graphs.connectivity import connected_components
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "ApproximationReport",
    "ProbeBounds",
    "quadratic_form_ratios",
    "resistance_preservation",
    "approximation_report",
]


@dataclass(frozen=True)
class ProbeBounds:
    """Min/max of a probe-measured ratio plus the probe count actually used.

    Unpacks like the historical ``(min, max)`` tuple — ``lo, hi =
    quadratic_form_ratios(...)`` keeps working — while making degenerate
    measurements visible: when every probe was skipped the bounds are NaN
    and ``num_probes_used`` is 0.
    """

    minimum: float
    maximum: float
    num_probes_used: int

    def __iter__(self) -> Iterator[float]:
        yield self.minimum
        yield self.maximum


def quadratic_form_ratios(
    original: Graph,
    sparsifier: Graph,
    num_vectors: int = 32,
    seed: SeedLike = None,
) -> ProbeBounds:
    """Min/max of ``x^T L_H x / x^T L_G x`` over random mean-zero test vectors.

    Random Gaussian vectors concentrate away from the extreme eigenvectors,
    so these ratios are *inside* the certificate interval; they serve as a
    cheap cross-check and as the quantity a user of the sparsifier (e.g. a
    cut/embedding application) actually experiences.

    Probes with a (numerically) zero denominator are skipped; if *every*
    probe is skipped — an edgeless or zero-weight original — the bounds
    are NaN with ``num_probes_used = 0`` rather than a fake perfect score.
    """
    rng = as_rng(seed)
    n = original.num_vertices
    ratios = []
    for _ in range(num_vectors):
        x = rng.standard_normal(n)
        x -= x.mean()
        denom = original.quadratic_form(x)
        if denom <= 1e-14:
            continue
        ratios.append(sparsifier.quadratic_form(x) / denom)
    if not ratios:
        return ProbeBounds(float("nan"), float("nan"), 0)
    return ProbeBounds(float(np.min(ratios)), float(np.max(ratios)), len(ratios))


def resistance_preservation(
    original: Graph,
    sparsifier: Graph,
    num_pairs: int = 32,
    seed: SeedLike = None,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> ProbeBounds:
    """Min/max ratio of effective resistances (sparsifier / original) over probe pairs.

    Probe pairs are sampled directly *within* the original graph's
    connected components (no rejection loop), so the requested ``num_pairs``
    is met whenever any component has two vertices — graphs with many
    small components can no longer silently shrink the probe set to
    nothing.  Pairs that are disconnected in the sparsifier contribute an
    infinite ratio.  With no usable pair at all the bounds are NaN and
    ``num_probes_used`` is 0.
    """
    certificate = certify_resistances(
        original, sparsifier, num_pairs=num_pairs, seed=seed, pairs=pairs
    )
    return ProbeBounds(
        certificate.ratio_min, certificate.ratio_max, certificate.num_pairs_used
    )


@dataclass
class ApproximationReport:
    """Bundle of quality metrics for one (original, sparsifier) pair."""

    certificate: SpectralCertificate
    quadratic_ratio_min: float
    quadratic_ratio_max: float
    resistance_ratio_min: float
    resistance_ratio_max: float
    edges_original: int
    edges_sparsifier: int
    connectivity_preserved: bool
    num_probes_used: int = 0
    num_resistance_pairs_used: int = 0

    @property
    def edge_reduction(self) -> float:
        if self.edges_sparsifier == 0:
            return float("inf") if self.edges_original else 1.0
        return self.edges_original / self.edges_sparsifier


def approximation_report(
    original: Graph,
    sparsifier: Graph,
    num_vectors: int = 32,
    num_pairs: int = 16,
    seed: SeedLike = None,
    include_resistances: bool = True,
) -> ApproximationReport:
    """Compute the full quality report used by the E1–E12 tables in ``benchmarks/``.

    Resistance probes ride the blocked multi-RHS solver paths, so the
    report is affordable on disconnected inputs and at large ``n`` (the
    pair measurements no longer require global connectivity — pairs are
    probed per component).
    """
    certificate = certify_approximation(original, sparsifier)
    quadratic = quadratic_form_ratios(
        original, sparsifier, num_vectors=num_vectors, seed=seed
    )
    if include_resistances:
        resistance = resistance_preservation(
            original, sparsifier, num_pairs=num_pairs, seed=seed
        )
    else:
        resistance = ProbeBounds(float("nan"), float("nan"), 0)
    connectivity = (
        int(connected_components(sparsifier).max(initial=0))
        == int(connected_components(original).max(initial=0))
    )
    return ApproximationReport(
        certificate=certificate,
        quadratic_ratio_min=quadratic.minimum,
        quadratic_ratio_max=quadratic.maximum,
        resistance_ratio_min=resistance.minimum,
        resistance_ratio_max=resistance.maximum,
        edges_original=original.num_edges,
        edges_sparsifier=sparsifier.num_edges,
        connectivity_preserved=bool(connectivity),
        num_probes_used=quadratic.num_probes_used,
        num_resistance_pairs_used=resistance.num_probes_used,
    )
