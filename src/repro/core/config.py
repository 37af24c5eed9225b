"""Configuration for the spanner-based sparsifier.

The paper's constants are asymptotic: Algorithm 1 uses a
``24 log^2 n / epsilon^2``-bundle spanner, which for any graph small
enough to fit in laptop memory is *larger than the graph itself* — the
paper explicitly discusses this "threshold of applicability" in Section 4.
The configuration therefore exposes two modes:

``theory``
    Use the paper's constants verbatim.  On laptop-scale inputs the bundle
    typically absorbs the whole graph and ``PARALLELSAMPLE`` degenerates to
    the identity (which is *correct*, just not useful); benchmarks use this
    mode only to demonstrate the threshold.
``practical``
    Use a bundle of ``ceil(log2(n) / 2)`` components
    (independent of epsilon).  The spectral guarantee is then no longer
    implied by Theorem 4's union bound — instead it is *measured* by the
    certificates, which is exactly what the experiments report.

Both sizes are fixed formulas; ``bundle_t`` sets any other bundle size.
Everything else (sampling probability, spanner parameter, tree bundles,
stretch certification) is also configurable so the ablations behind the
E1–E12 tables in ``benchmarks/`` are driven by config values rather than
code edits.  An input with at most :data:`MIN_EDGES_TO_SPARSIFY` edges
comes back unchanged: it has nothing to sample.

The config is also the one place that says where work runs: ``backend``
and ``max_workers`` live here and nowhere else, and
:meth:`SparsifierConfig.execution_backend` is the one call every fan-out
(``Engine.run_many`` jobs and stream compactions) uses to get its
backend.  Neither changes what is computed: each ``PARALLELSAMPLE``
round runs on the whole graph in the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.exceptions import SparsificationError
from repro.parallel.backends import ExecutionBackend, available_backends, get_backend
from repro.spanners.bundle import bundle_size_for_epsilon
from repro.utils.validation import check_epsilon, check_probability

__all__ = ["SparsifierConfig"]

# Practical-mode bundle size: ``ceil(_PRACTICAL_SCALE * log2 n)`` components.
_PRACTICAL_SCALE = 0.5

# ``PARALLELSAMPLE`` returns inputs with at most this many edges unchanged.
MIN_EDGES_TO_SPARSIFY = 1


@dataclass(frozen=True)
class SparsifierConfig:
    """Knobs for ``PARALLELSAMPLE`` / ``PARALLELSPARSIFY``.

    Attributes
    ----------
    epsilon:
        Target spectral approximation parameter of the *overall* call
        (Algorithm 2 divides it by ``ceil(log2 rho)`` per round).
    mode:
        ``"theory"`` (bundle size ``24 log2(n)^2 / epsilon^2``, the
        paper's) or ``"practical"`` (``ceil(log2(n) / 2)``) — see module
        docstring.
    bundle_t:
        Explicit bundle size overriding both modes (useful in ablations).
    sampling_probability:
        Probability of keeping a non-bundle edge (paper: 1/4).  Kept edges
        are reweighted by ``1 / sampling_probability`` so the expectation
        is preserved.
    spanner_k:
        Baswana–Sen parameter for each bundle component; ``None`` means
        ``ceil(log2 n)`` (the paper's log n-spanner).
    use_tree_bundle:
        Replace spanner components with low-stretch spanning forests
        (Remark 2 ablation).
    certify_stretch:
        After building each bundle component, repair it so every
        non-component edge provably meets the stretch target (makes the
        Lemma 1 certificate unconditional at a small extra cost).
    backend:
        Execution backend name: ``"serial"``, ``"thread"`` or
        ``"process"``; ``None`` means serial.  Backends only change
        *where* ``Engine.run_many`` jobs and stream compactions run, and
        only ``run_many`` runs several jobs at once — outputs are
        bit-identical for a fixed seed on every backend and worker count.
    max_workers:
        Worker count for the backend; ``None`` uses the backend default.
        Setting ``max_workers > 1`` while ``backend`` is ``None`` raises
        :class:`~repro.exceptions.BackendError` at use time instead of
        silently running sequentially.
    solver:
        Inner Laplacian-solver choice for the resistance/certification
        routes that consume this config: ``"cg"`` (the default: the
        ``factor → cg → pinv`` ladder, which answers a low-fill Laplacian
        with one sparse factorization, any other Laplacian up to
        ``DENSE_FALLBACK_LIMIT`` vertices with one dense Cholesky, and the
        rest with blocked CG) or
        ``"chain"`` (the ``chain → cg → pinv`` ladder: blocked CG
        preconditioned with a cached Peng–Spielman chain — the paper's own
        machinery accelerating its certification; see
        :mod:`repro.resistance.solver_select`).  Never changes *what* is
        computed — only how the inner solves get there.
    """

    epsilon: float = 0.5
    mode: str = "practical"
    bundle_t: Optional[int] = None
    sampling_probability: float = 0.25
    spanner_k: Optional[int] = None
    use_tree_bundle: bool = False
    certify_stretch: bool = False
    backend: Optional[str] = None
    max_workers: Optional[int] = None
    solver: str = "cg"

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon, "epsilon")
        check_probability(self.sampling_probability, "sampling_probability")
        if self.sampling_probability <= 0.0:
            raise SparsificationError("sampling_probability must be strictly positive")
        if self.mode not in ("theory", "practical"):
            raise SparsificationError(
                f"mode must be 'theory' or 'practical', got {self.mode!r}"
            )
        # Integer sizes: each is None or at least 1.
        for name in ("bundle_t", "spanner_k", "max_workers"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SparsificationError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise SparsificationError(f"{name} must be >= 1, got {value}")
        if self.backend is not None and self.backend not in available_backends():
            raise SparsificationError(
                f"backend must be one of {', '.join(available_backends())} or None, "
                f"got {self.backend!r}"
            )
        if self.solver not in ("cg", "chain"):
            raise SparsificationError(
                f"solver must be 'cg' or 'chain', got {self.solver!r}"
            )

    # ------------------------------------------------------------------ #

    def bundle_size(self, num_vertices: int, epsilon: Optional[float] = None) -> int:
        """Number of bundle components ``t`` for a graph with ``num_vertices``.

        ``epsilon`` defaults to the config's epsilon; Algorithm 2 passes
        the per-round epsilon here.
        """
        eps = self.epsilon if epsilon is None else epsilon
        check_epsilon(eps, "epsilon")
        if self.bundle_t is not None:
            return self.bundle_t
        if self.mode == "theory":
            return bundle_size_for_epsilon(num_vertices, eps)
        return max(1, int(np.ceil(_PRACTICAL_SCALE * np.log2(max(num_vertices, 2)))))

    @property
    def weight_multiplier(self) -> float:
        """Weight applied to kept non-bundle edges: ``1 / p`` (paper: 4)."""
        return 1.0 / self.sampling_probability

    @staticmethod
    def num_rounds(rho: float) -> int:
        """Number of PARALLELSAMPLE rounds for sparsification factor ``rho``."""
        if rho < 1:
            raise SparsificationError(f"sparsification factor rho must be >= 1, got {rho}")
        if rho == 1:
            return 0
        return int(np.ceil(np.log2(rho)))

    def execution_backend(self) -> ExecutionBackend:
        """The backend every fan-out of this config runs on.

        ``Engine.run_many`` jobs and stream compactions both get their
        backend here, so a test can substitute one (e.g. a
        :class:`repro.testing.faults.InjectingBackend`) by patching this
        one method.
        """
        return get_backend(self.backend, self.max_workers)

    def with_overrides(self, **kwargs) -> "SparsifierConfig":
        """Copy with selected fields replaced (frozen-dataclass convenience)."""
        return replace(self, **kwargs)

    @classmethod
    def theory(cls, epsilon: float = 0.5, **kwargs) -> "SparsifierConfig":
        """Paper-constant configuration."""
        return cls(epsilon=epsilon, mode="theory", **kwargs)

    @classmethod
    def practical(cls, epsilon: float = 0.5, **kwargs) -> "SparsifierConfig":
        """Laptop-scale configuration (default)."""
        return cls(epsilon=epsilon, mode="practical", **kwargs)
