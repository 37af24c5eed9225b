"""Spanner construction: Baswana–Sen, t-bundles, baselines, verification.

Spanners are the combinatorial engine of the paper's sparsifier: a
(2 log n)-spanner of the *resistive metric* (edge lengths ``1 / w``)
certifies, for every non-spanner edge, a short path whose resistance is at
most ``2 log n / w_e``; stacking ``t`` edge-disjoint spanners (a
*t-bundle*, Definition 1) drives the certified effective resistance down
to ``~log n / (t w_e)`` (Lemma 1).

Modules
-------
``baswana_sen``
    The randomized clustering spanner of Baswana & Sen (Theorems 1–2 of
    the paper adapt their Theorems 5.4 / 5.1), sequential reference
    implementation with PRAM cost accounting.
``distributed_spanner``
    The same algorithm as a synchronous distributed (CONGEST) protocol,
    and the t-bundle peel on top of it.
``congest_spanner``
    The protocol as a columnar array program on
    :mod:`repro.parallel.congest` — bit-identical outputs and cost
    triples, orders of magnitude faster stepping.
``bundle``
    t-bundle spanner construction (Definition 1, Corollaries 2–3).
``greedy``
    The classical greedy (2k-1)-spanner, used as a deterministic baseline
    and in tests as an independent implementation.
``low_stretch_tree``
    Low-stretch spanning trees and tree bundles (Remark 2 ablation).
``verification``
    Stretch verification utilities used by tests and the "certify" mode.
"""

from repro.spanners.baswana_sen import SpannerResult, baswana_sen_spanner
from repro.spanners.bundle import BundleResult, t_bundle_spanner, bundle_for_epsilon
from repro.spanners.greedy import greedy_spanner
from repro.spanners.low_stretch_tree import low_stretch_tree, tree_bundle
from repro.spanners.verification import (
    max_stretch_of_nonspanner_edges,
    verify_spanner,
    repair_spanner,
)
from repro.spanners.congest_spanner import ColumnarBaswanaSenProgram
from repro.spanners.distributed_spanner import (
    distributed_baswana_sen_spanner,
    distributed_bundle_spanner,
)

__all__ = [
    "SpannerResult",
    "baswana_sen_spanner",
    "BundleResult",
    "t_bundle_spanner",
    "bundle_for_epsilon",
    "greedy_spanner",
    "low_stretch_tree",
    "tree_bundle",
    "max_stretch_of_nonspanner_edges",
    "verify_spanner",
    "repair_spanner",
    "distributed_baswana_sen_spanner",
    "distributed_bundle_spanner",
    "ColumnarBaswanaSenProgram",
]
