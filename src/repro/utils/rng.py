"""Random number generator plumbing.

All randomized algorithms in this package (Baswana--Sen spanners, the
sampling steps of ``PARALLELSAMPLE``, baseline samplers, graph generators)
accept a ``seed`` argument that is normalised through :func:`as_rng`.  This
gives deterministic, reproducible experiments while still allowing callers
to pass an already-constructed :class:`numpy.random.Generator`.

Parallel and distributed simulations need *independent* per-worker streams;
:func:`spawn_rngs` produces statistically independent child generators via
NumPy's ``SeedSequence.spawn`` mechanism, which is the recommended approach
for reproducible parallel Monte Carlo.  :class:`NodeStreams` holds the same
child streams as flat arrays, for simulators that step every node at once.
"""

from __future__ import annotations

from typing import Any, List, Tuple, Union

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

    Used by the per-node reference simulator to hand every simulated node
    its own stream, so the per-node random choices are reproducible
    regardless of the order in which nodes are stepped.
    :class:`NodeStreams` is the array form of the same streams.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if isinstance(seed, np.random.Generator):
        return split_rng(seed, n)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


# SeedSequence's entropy-pool hash (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier as 64-bit halves, the low half also as
# 32-bit halves; every operand of the uint64 array arithmetic is uint64,
# so NumPy 1.x value-based casting and NumPy 2 (NEP 50) agree.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO_1 = np.uint64((_PCG_MULT >> 32) & _MASK32)
_LOW32 = np.uint64(_MASK32)
_ONE = np.uint64(1)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)


def _uint32_words(value: Any) -> List[int]:
    """SeedSequence's coercion of an entropy value or spawn key to 32-bit words."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value: Any, hash_const: int) -> Tuple[Any, int]:
    """SeedSequence's ``hashmix``: the mixed value and the next hash constant.

    ``value`` is a Python int or a uint32 array; the Python-int operands
    are all below 2**32, so the array arithmetic stays uint32.
    """
    next_const = (hash_const * _MULT_A) & _MASK32
    value = ((value ^ hash_const) * next_const) & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x: int, y: Any) -> Any:
    """SeedSequence's ``mix`` of a pool word ``x`` with a hashed word ``y``."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step ``state * mult + inc`` mod 2**128 on uint64 halves.

    The high 64 bits of ``lo * mult_lo`` come from 32-bit partial
    products, none of which overflows a uint64.
    """
    a0 = lo & _LOW32
    a1 = lo >> _U32
    p00 = a0 * _MULT_LO_0
    p01 = a0 * _MULT_LO_1
    p10 = a1 * _MULT_LO_0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    prod_lo = (mid << _U32) | (p00 & _LOW32)
    prod_hi = hi * _MULT_LO + lo * _MULT_HI + carry
    new_lo = prod_lo + inc_lo
    new_hi = prod_hi + inc_hi + (new_lo < prod_lo).astype(np.uint64)
    return new_hi, new_lo


class NodeStreams:
    """The streams of ``spawn_rngs(seed, n)``, held as flat arrays.

    Every node's PCG64 state lives in uint64 arrays, so a simulator that
    steps all nodes at once draws for a whole index array in one call
    instead of one :class:`numpy.random.Generator` call per node, and
    building the streams costs a few array passes instead of ``n``
    ``SeedSequence`` and ``Generator`` objects.  ``random(nodes)`` returns
    bit for bit what ``[rngs[v].random() for v in nodes]`` returns for
    ``rngs = spawn_rngs(seed, n)``.

    Seeds are normalised as :func:`spawn_rngs` normalises them: a
    ``Generator`` gives up one ``integers(0, 2**63 - 1)`` draw (as in
    :func:`split_rng`), an int or ``None`` goes through ``SeedSequence``,
    and a ``SeedSequence`` is advanced as ``spawn(n)`` advances it.
    Child seeds reproduce ``SeedSequence``'s entropy-pool hash: the words
    every child shares are mixed once, the child index as a uint32
    vector; ``generate_state(4, np.uint64)`` and PCG64's seeding follow.

    >>> streams = NodeStreams(7, 3)
    >>> rngs = spawn_rngs(7, 3)
    >>> streams.random(np.array([0, 2])).tolist() == [rngs[0].random(), rngs[2].random()]
    True
    """

    def __init__(self, seed: SeedLike, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if isinstance(seed, np.random.Generator):
            seed = int(seed.integers(0, 2**63 - 1))
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        first = seq.n_children_spawned
        if first + n > 2**32:
            raise ValueError("child indices past 2**32 - 1 are not supported")
        pool_size = seq.pool_size

        # Child i's entropy: the run entropy zero-padded to the pool size,
        # the spawn key, then i.  Everything before i is shared, so the
        # pool is mixed over it once, in Python ints.
        run = _uint32_words(seq.entropy)
        shared = run + [0] * (pool_size - len(run)) + _uint32_words(seq.spawn_key)
        hash_const = _INIT_A
        pool = []
        for word in shared[:pool_size]:
            mixed, hash_const = _hashmix(word, hash_const)
            pool.append(mixed)
        for src in range(pool_size):
            for dst in range(pool_size):
                if src != dst:
                    mixed, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], mixed)
        for word in shared[pool_size:]:
            for dst in range(pool_size):
                mixed, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], mixed)

        child = np.arange(first, first + n, dtype=np.uint32)
        child_pool = []
        for dst in range(pool_size):
            mixed, hash_const = _hashmix(child, hash_const)
            child_pool.append(_mix(pool[dst], mixed))

        # generate_state(4, np.uint64): eight uint32 words, paired
        # little-endian into four uint64 seed words.
        hash_const = _INIT_B
        words = []
        for i in range(8):
            data = child_pool[i % pool_size] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            data = (data * hash_const) & _MASK32
            words.append((data ^ (data >> 16)).astype(np.uint64))
        state_hi, state_lo, seq_hi, seq_lo = (
            words[2 * j] | (words[2 * j + 1] << _U32) for j in range(4)
        )

        # PCG64 srandom: state 0, inc = (seq << 1) | 1, step, add the
        # initial state, step.
        self._inc_hi = (seq_hi << _ONE) | (seq_lo >> _U63)
        self._inc_lo = (seq_lo << _ONE) | _ONE
        lo = self._inc_lo + state_lo
        hi = self._inc_hi + state_hi + (lo < state_lo).astype(np.uint64)
        self._hi, self._lo = _pcg_step(hi, lo, self._inc_hi, self._inc_lo)
        if isinstance(seed, np.random.SeedSequence):
            # The caller's sequence must move on exactly as spawn_rngs
            # moves it; spawn() is the only way to advance its counter.
            seed.spawn(n)

    def random(self, nodes: np.ndarray) -> np.ndarray:
        """One ``Generator.random()`` draw from each listed node's stream.

        ``nodes`` are distinct node indices; only their streams advance.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        hi, lo = _pcg_step(
            self._hi[nodes], self._lo[nodes], self._inc_hi[nodes], self._inc_lo[nodes]
        )
        self._hi[nodes] = hi
        self._lo[nodes] = lo
        # XSL-RR output, then the top 53 bits as a double in [0, 1).
        x = hi ^ lo
        rot = hi >> _U58
        out = (x >> rot) | (x << ((_U64 - rot) & _U63))
        return (out >> _U11) * 2.0**-53
