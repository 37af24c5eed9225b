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
    Use a bundle of ``ceil(practical_scale * log2 n)`` components
    (independent of epsilon).  The spectral guarantee is then no longer
    implied by Theorem 4's union bound — instead it is *measured* by the
    certificates, which is exactly what the experiments report.

Everything else (sampling probability, spanner parameter, tree bundles,
stretch certification) is also configurable so the ablations in
EXPERIMENTS.md are driven by config values rather than code edits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.exceptions import SparsificationError
from repro.utils.validation import check_epsilon, check_probability

__all__ = ["SparsifierConfig"]


@dataclass(frozen=True)
class SparsifierConfig:
    """Knobs for ``PARALLELSAMPLE`` / ``PARALLELSPARSIFY``.

    Attributes
    ----------
    epsilon:
        Target spectral approximation parameter of the *overall* call
        (Algorithm 2 divides it by ``ceil(log2 rho)`` per round).
    mode:
        ``"theory"`` or ``"practical"`` — see module docstring.
    bundle_constant:
        The constant in the theory-mode bundle size
        ``bundle_constant * log2(n)^2 / epsilon^2`` (paper: 24).
    practical_scale:
        Practical-mode bundle size is ``ceil(practical_scale * log2 n)``.
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
    min_edges_to_sparsify:
        Inputs with fewer edges are returned unchanged — mirrors the
        "threshold of applicability" logic of Section 4.
    backend:
        Execution backend name (``"serial"``, ``"thread"``, ``"process"``,
        or any name registered with
        :func:`repro.parallel.backends.register_backend`); ``None`` uses
        the process-wide default.  Backends only change *where* shard/job
        work runs — outputs are bit-identical for a fixed seed on every
        backend and worker count.
    max_workers:
        Worker count for the backend; ``None`` uses the backend default.
        Setting ``max_workers > 1`` while ``backend`` is ``None`` and the
        process-wide default is serial raises at use time instead of
        silently running sequentially.
    num_shards:
        Vertex-range shards for the shard-parallel execution paths of
        ``PARALLELSAMPLE`` and its distributed driver.  ``1`` (default)
        keeps the classic single-stream execution; with ``num_shards > 1``
        each shard's spanner/sampling work is dispatched through the
        backend and cross-shard boundary edges are kept in the bundle.
        Note that the shard count (unlike the backend) is part of the
        algorithm: different ``num_shards`` values give different (equally
        valid) sparsifiers.
    solver:
        Inner Laplacian-solver choice for the resistance/certification
        routes that consume this config: ``"cg"`` (plain blocked CG, the
        default) or ``"chain"`` (blocked CG preconditioned with a cached
        Peng–Spielman chain — the paper's own machinery accelerating its
        certification; see :mod:`repro.resistance.solver_select`).  Never
        changes *what* is computed — only how fast the inner solves
        converge.
    """

    epsilon: float = 0.5
    mode: str = "practical"
    bundle_constant: float = 24.0
    practical_scale: float = 0.5
    bundle_t: Optional[int] = None
    sampling_probability: float = 0.25
    spanner_k: Optional[int] = None
    use_tree_bundle: bool = False
    certify_stretch: bool = False
    min_edges_to_sparsify: int = 1
    backend: Optional[str] = None
    max_workers: Optional[int] = None
    num_shards: int = 1
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
        if self.bundle_constant <= 0:
            raise SparsificationError("bundle_constant must be positive")
        if self.practical_scale <= 0:
            raise SparsificationError("practical_scale must be positive")
        if self.bundle_t is not None and self.bundle_t < 1:
            raise SparsificationError("bundle_t must be >= 1 when given")
        if self.spanner_k is not None and self.spanner_k < 1:
            raise SparsificationError("spanner_k must be >= 1 when given")
        if self.min_edges_to_sparsify < 0:
            raise SparsificationError("min_edges_to_sparsify must be non-negative")
        if self.backend is not None and not isinstance(self.backend, str):
            raise SparsificationError(
                f"backend must be a registered backend name or None, got {self.backend!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise SparsificationError("max_workers must be >= 1 when given")
        if self.num_shards < 1:
            raise SparsificationError("num_shards must be >= 1")
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
        log_n = np.log2(max(num_vertices, 2))
        if self.mode == "theory":
            return max(1, int(np.ceil(self.bundle_constant * log_n * log_n / (eps * eps))))
        return max(1, int(np.ceil(self.practical_scale * log_n)))

    @property
    def weight_multiplier(self) -> float:
        """Weight applied to kept non-bundle edges: ``1 / p`` (paper: 4)."""
        return 1.0 / self.sampling_probability

    def per_round_epsilon(self, rho: float) -> float:
        """Epsilon used by each round of ``PARALLELSPARSIFY``: ``eps / ceil(log2 rho)``."""
        rounds = self.num_rounds(rho)
        return self.epsilon / max(rounds, 1)

    @staticmethod
    def num_rounds(rho: float) -> int:
        """Number of PARALLELSAMPLE rounds for sparsification factor ``rho``."""
        if rho < 1:
            raise SparsificationError(f"sparsification factor rho must be >= 1, got {rho}")
        if rho == 1:
            return 0
        return int(np.ceil(np.log2(rho)))

    def execution_backend(self):
        """Resolve the configured :class:`repro.parallel.backends.ExecutionBackend`.

        Invalid backend names raise :class:`repro.exceptions.BackendError`
        here (at use time) rather than at config construction, so configs
        can be built before custom backends are registered.
        """
        from repro.parallel.backends import get_backend

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
