"""Engine adapters for the baseline sparsifiers.

The runners of the four baseline rows of the method table
(:mod:`repro.api.registry`):

``spielman-srivastava``
    Effective-resistance importance sampling [23] — the solver-dependent
    scheme the paper's spanner-based algorithm replaces.  Its resistances
    ride the blocked multi-RHS solver paths, so the method stays usable in
    ``compare`` runs at n >= 4096 (pass ``use_approximate_resistances`` /
    ``resistance_method`` / ``resistance_tol`` / ``block_size`` through
    ``options`` to steer them).
``uniform``
    Certificate-free uniform sampling — the counter-example baseline.
``kapralov-panigrahi``
    Spanner-oversampling with ``1/eps^4`` size [7] — the other
    spanner-based scheme (Remark 4).
``k-out``
    Random k-out sampling with Horvitz–Thompson reweighting
    (:mod:`repro.graphs.kout`) — the connectivity-regime baseline and
    the streaming sparsifier's dense-burst presampler.  Not a spectral
    sparsifier; it ignores epsilon entirely (``k`` rides ``options``).

The baselines are single-shot (no rounds) and ignore ``rho``; each
adapter resolves epsilon with the same "explicit epsilon else
``config.epsilon``" convention the core entry points use, and delegates to
the legacy function (bit-identical outputs for the same seed); the
engine itself emits the single ``"result"`` telemetry event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.baselines.kapralov_panigrahi import kapralov_panigrahi_sparsify
from repro.baselines.spielman_srivastava import spielman_srivastava_sparsify
from repro.baselines.uniform import uniform_sparsify
from repro.core.config import SparsifierConfig
from repro.graphs.graph import Graph
from repro.graphs.kout import random_k_out_sample

__all__ = [
    "run_spielman_srivastava",
    "run_uniform",
    "run_kapralov_panigrahi",
    "run_k_out",
]


def _resolve_epsilon(epsilon: Optional[float], config: SparsifierConfig) -> float:
    """Explicit epsilon wins; otherwise the config's (same rule as core)."""
    return config.epsilon if epsilon is None else float(epsilon)


def run_spielman_srivastava(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`spielman_srivastava_sparsify`.

    The config-level ``solver`` knob is forwarded to the resistance
    computation unless the request's ``options`` override it explicitly.
    """
    kwargs = dict(options)
    kwargs.setdefault("solver", config.solver)
    return spielman_srivastava_sparsify(
        graph, epsilon=_resolve_epsilon(epsilon, config), seed=seed, **kwargs
    )


def run_uniform(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`uniform_sparsify`.

    A ``probability`` option selects the baseline's native
    parameterisation; otherwise the epsilon-style keyword path of
    :func:`uniform_sparsify` derives the keep-probability from the same
    edge budget the importance samplers use.  Passing *both* a
    probability option and an explicit request epsilon is the same
    conflict the legacy function rejects, and is forwarded so it raises
    identically (a config-level epsilon default does not conflict).
    """
    if "probability" in options:
        # Only an *explicit* request epsilon conflicts; forward it so
        # uniform_sparsify raises exactly as the legacy call would.
        return uniform_sparsify(graph, seed=seed, epsilon=epsilon, **options)
    return uniform_sparsify(
        graph, epsilon=_resolve_epsilon(epsilon, config), seed=seed, **options
    )


def run_kapralov_panigrahi(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`kapralov_panigrahi_sparsify`."""
    return kapralov_panigrahi_sparsify(
        graph, epsilon=_resolve_epsilon(epsilon, config), seed=seed, **options
    )


def run_k_out(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`repro.graphs.kout.random_k_out_sample`.

    ``k`` and ``reweight`` ride ``options``; ``k`` defaults to
    ``ceil(log2 n)``.  Epsilon is deliberately ignored — k-out is a
    connectivity sampler, not a spectral one, which is exactly why it is
    a useful counter-baseline in ``compare`` runs.
    """
    return random_k_out_sample(graph, seed=seed, **options)
