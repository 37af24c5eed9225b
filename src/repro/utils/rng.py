"""Random number generator plumbing.

All randomized algorithms in this package (Baswana--Sen spanners, the
sampling steps of ``PARALLELSAMPLE``, baseline samplers, graph generators)
accept a ``seed`` argument that is normalised through :func:`as_rng`.  This
gives deterministic, reproducible experiments while still allowing callers
to pass an already-constructed :class:`numpy.random.Generator`.

Parallel and distributed simulations need *independent* per-worker streams;
:func:`spawn_rngs` produces statistically independent child generators via
NumPy's ``SeedSequence.spawn`` mechanism, which is the recommended approach
for reproducible parallel Monte Carlo.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

# Public alias: everything downstream types against this.
RandomState = np.random.Generator

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> RandomState:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, an
        existing ``Generator`` (returned unchanged), or a ``SeedSequence``.

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def fresh_entropy_seed() -> int:
    """Draw one fresh OS-entropy seed as a journal-able non-negative int.

    This is the package's *only* sanctioned source of OS entropy
    (enforced by lint rule ``REP001``): components that accept
    ``seed=None`` must obtain their actual seed here **once** and record
    it — in a journal header, on a result object — so that even an
    auto-seeded run is reproducible after the fact.  Never draw entropy
    at a call site directly; an unrecorded draw voids every bit-exactness
    guarantee downstream of it.
    """
    return int(np.random.SeedSequence().entropy % (2**63))


def split_rng(rng: RandomState, n: int = 2) -> List[RandomState]:
    """Split ``rng`` into ``n`` independent generators.

    The parent generator is used to derive a fresh ``SeedSequence`` so the
    children are independent of each other *and* of subsequent draws from
    the parent.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    entropy = int(rng.integers(0, 2**63 - 1))
    seq = np.random.SeedSequence(entropy)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def spawn_rngs(seed: SeedLike, n: int) -> List[RandomState]:
    """Create ``n`` independent generators from a single seed.

    Used by the distributed simulator to hand every simulated node its own
    stream, so the per-node random choices are reproducible regardless of
    the order in which nodes are stepped.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if isinstance(seed, np.random.Generator):
        return split_rng(seed, n)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
