"""Baseline sparsification algorithms the paper compares against.

* :mod:`repro.baselines.spielman_srivastava` — effective-resistance
  importance sampling [23]: the gold-standard size/quality trade-off, but
  it needs a Laplacian solver (or sketching built on one), which is
  exactly the dependence the paper's solve-free algorithm removes.
* :mod:`repro.baselines.uniform` — naive uniform edge sampling without a
  bundle: demonstrates why the certificate matters (bridges/dumbbells
  break it).
* :mod:`repro.baselines.kapralov_panigrahi` — a re-interpretation of the
  Kapralov–Panigrahi spanner-based sparsifier [7]: a single spanner
  certifies "robust connectivity" upper bounds that are then oversampled,
  paying the ``1/eps^4``-type dependence Remark 4 contrasts with this
  paper's ``1/eps^2``.

All three result types carry ``sparsifier``, ``input_edges`` and
``output_edges``, and every baseline is a row of the unified method
table (runners in :mod:`repro.baselines.methods`), so
``repro.sparsify(g, method="uniform")`` and friends go through the same
engine as the paper's algorithm and report the same
:class:`~repro.api.result.UnifiedResult` (``reduction_factor`` included).
"""

from repro.baselines.spielman_srivastava import (
    SSResult,
    spielman_srivastava_sparsify,
)
from repro.baselines.uniform import (
    UniformSampleResult,
    uniform_probability_for_epsilon,
    uniform_sparsify,
)
from repro.baselines.kapralov_panigrahi import KPResult, kapralov_panigrahi_sparsify

__all__ = [
    "SSResult",
    "spielman_srivastava_sparsify",
    "UniformSampleResult",
    "uniform_probability_for_epsilon",
    "uniform_sparsify",
    "KPResult",
    "kapralov_panigrahi_sparsify",
]
