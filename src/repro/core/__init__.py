"""The paper's primary contribution: spanner-based spectral sparsification.

* :mod:`repro.core.config` — :class:`SparsifierConfig`, the knob set
  (epsilon, bundle sizing, theory vs practical constants, certification).
* :mod:`repro.core.sample` — Algorithm 1, ``PARALLELSAMPLE``: one bundle +
  one uniform-sampling pass, halving the non-bundle edges while preserving
  the quadratic form within ``1 ± epsilon`` (Theorem 4).
* :mod:`repro.core.sparsify` — Algorithm 2, ``PARALLELSPARSIFY``: iterate
  ``PARALLELSAMPLE`` ``ceil(log2 rho)`` times to cut the edge count by the
  sparsification factor ``rho`` (Theorem 5).
* :mod:`repro.core.certificates` — measured spectral approximation
  certificates for the outputs.
* :mod:`repro.core.distributed_sparsify` — the same pipeline driven
  through the synchronous distributed simulator, with round/message
  accounting (the distributed halves of Theorems 4–5).
* :mod:`repro.core.checkpoint` — the durable-write seam, the sealed-record
  codec and the journal line reader the stream store builds on.
* :mod:`repro.core.methods` — the engine runners of the two core
  entry points (``koutis`` / ``koutis-distributed``), two rows of the
  method table of :mod:`repro.api`.
"""

from repro.core.config import SparsifierConfig
from repro.core.sample import SampleResult, parallel_sample
from repro.core.sparsify import SparsifyResult, RoundRecord, parallel_sparsify
from repro.core.certificates import (
    ResistanceCertificate,
    SpectralCertificate,
    certify_approximation,
    certify_resistances,
)
from repro.core.distributed_sparsify import (
    DistributedSampleResult,
    DistributedSparsifyResult,
    distributed_parallel_sample,
    distributed_parallel_sparsify,
)

__all__ = [
    "SparsifierConfig",
    "SampleResult",
    "parallel_sample",
    "SparsifyResult",
    "RoundRecord",
    "parallel_sparsify",
    "SpectralCertificate",
    "certify_approximation",
    "certify_resistances",
    "ResistanceCertificate",
    "DistributedSampleResult",
    "DistributedSparsifyResult",
    "distributed_parallel_sample",
    "distributed_parallel_sparsify",
]
