"""Approximate inverse chains (the Peng–Spielman framework, Section 4).

A chain for ``M_1 = D_1 - A_1`` is a sequence ``{M_1, M_2, ..., M_d}`` where
``M_{i+1}`` spectrally approximates ``D_i - A_i D_i^{-1} A_i``.  Applying
the chain approximates ``M_1^{-1}`` through the recursion

    M_i^{-1} ≈ 1/2 [ D_i^{-1}
                     + (I + D_i^{-1} A_i) M_{i+1}^{-1} (I + A_i D_i^{-1}) ],

with the last level approximated by its diagonal inverse (by construction
it is well conditioned relative to its diagonal).

Two deviations from the paper's construction, both documented in
DESIGN.md:

* **Clique avoidance.**  Peng–Spielman's Corollary 6.4 replaces the 2-hop
  cliques of ``A D^{-1} A`` with sparse gadgets *before* sparsifying.  At
  laptop scale forming the product explicitly is cheap, so we form it and
  let ``PARALLELSPARSIFY`` (the paper's Theorem 6 plug-in) bring the size
  back down; the measured per-level nnz reported by the work model plays
  the role of the paper's size bound.
* **Laplacian null space.**  For connected-graph Laplacians every level is
  again a connected-graph Laplacian (the ones vector stays in the null
  space), so the recursion simply projects against constants at every
  level; the outer PCG is deflated as well.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.core.checkpoint import batch_graph_digest
from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import SparsificationError
from repro.graphs.conversion import from_laplacian
from repro.graphs.graph import Graph
from repro.graphs.laplacian import is_laplacian
from repro.utils.rng import SeedLike, as_rng, split_rng

__all__ = [
    "ChainLevel",
    "InverseChain",
    "build_inverse_chain",
    "apply_chain",
    "chain_preconditioner",
    "build_preconditioner_chain",
    "ChainCache",
    "default_chain_cache",
]


@dataclass
class ChainLevel:
    """One level of the approximate inverse chain.

    Attributes
    ----------
    laplacian:
        The level's matrix ``M_i`` (a graph Laplacian).
    diag:
        ``D_i`` — the diagonal of ``M_i``.
    adjacency:
        ``A_i = D_i - M_i`` (non-negative, symmetric, zero diagonal).
    edges_before_sparsify / edges_after_sparsify:
        Edge counts of the two-hop product before and after the
        sparsification that produced this level (equal for level 1).
    sparsified:
        Whether sparsification was applied when forming this level.
    component_labels:
        Connected-component label per vertex of this level's graph.  The
        two-hop reduction of a bipartite level is disconnected, so every
        level carries its own null-space structure (constants per
        component); the chain application projects against it.
    """

    laplacian: sp.csr_matrix
    diag: np.ndarray
    adjacency: sp.csr_matrix
    edges_before_sparsify: int
    edges_after_sparsify: int
    sparsified: bool
    component_labels: np.ndarray
    # Lazily built (num_components, n) row-averaging operator used by the
    # blocked null-space projection; cached because the chain applies it on
    # every PCG iteration.
    _mean_operator: Optional[sp.csr_matrix] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nnz(self) -> int:
        return int(self.laplacian.nnz)

    @property
    def dimension(self) -> int:
        return int(self.laplacian.shape[0])

    @property
    def num_components(self) -> int:
        return int(self.component_labels.max(initial=0)) + 1 if self.component_labels.size else 0

    def project_out_nulls(self, block: np.ndarray) -> np.ndarray:
        """Project an ``(n,)`` vector or ``(n, k)`` block against the level's
        null space (the constant vector of each connected component).

        Single-component levels take the cheap dense-mean path; levels with
        several components use a cached sparse row-averaging operator so the
        per-component means of all ``k`` columns come out of one flat
        sparse-dense product.
        """
        labels = self.component_labels
        if labels.size == 0:
            return block
        if self.num_components == 1:
            if block.ndim == 1:
                return block - block.mean()
            return block - block.mean(axis=0, keepdims=True)
        if self._mean_operator is None:
            counts = np.bincount(labels, minlength=self.num_components).astype(float)
            counts[counts == 0] = 1.0
            n = labels.shape[0]
            self._mean_operator = sp.csr_matrix(
                (1.0 / counts[labels], (labels, np.arange(n, dtype=np.int64))),
                shape=(self.num_components, n),
            )
        means = self._mean_operator @ block
        return block - means[labels]


@dataclass
class InverseChain:
    """A full approximate inverse chain ``{M_1, ..., M_d}``."""

    levels: List[ChainLevel]
    epsilon_per_level: float
    rho: float

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def total_nnz(self) -> int:
        return int(sum(level.nnz for level in self.levels))

    def __iter__(self):
        return iter(self.levels)


def _split_level(laplacian: sp.csr_matrix) -> ChainLevel:
    """Split a Laplacian into (diag, adjacency) and wrap as a level."""
    lap = sp.csr_matrix(laplacian)
    diag = lap.diagonal().astype(float)
    adjacency = sp.csr_matrix(sp.diags(diag) - lap)
    adjacency.data = np.maximum(adjacency.data, 0.0)
    adjacency.eliminate_zeros()
    m_edges = int(sp.triu(adjacency, k=1).nnz)
    if lap.shape[0]:
        _, labels = csgraph.connected_components(adjacency, directed=False)
    else:
        labels = np.zeros(0, dtype=np.int64)
    return ChainLevel(
        laplacian=lap,
        diag=diag,
        adjacency=adjacency,
        edges_before_sparsify=m_edges,
        edges_after_sparsify=m_edges,
        sparsified=False,
        component_labels=np.asarray(labels, dtype=np.int64),
    )


def _two_hop_laplacian(level: ChainLevel, drop_tol: float = 1e-12) -> sp.csr_matrix:
    """Form ``D - A D^{-1} A`` for a level (a Laplacian again)."""
    diag = level.diag.copy()
    # Isolated vertices have zero degree; they stay isolated at the next level.
    safe_diag = np.where(diag > 0, diag, 1.0)
    scaled = level.adjacency.multiply(1.0 / safe_diag[:, None]).tocsr()
    product = (level.adjacency @ scaled).tocsr()
    product = 0.5 * (product + product.T)
    two_hop = sp.diags(diag) - product
    two_hop = sp.csr_matrix(two_hop)
    # Clear numerical noise so the matrix remains a clean Laplacian.
    off = two_hop - sp.diags(two_hop.diagonal())
    off.data[np.abs(off.data) < drop_tol] = 0.0
    off.eliminate_zeros()
    cleaned = off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())
    return sp.csr_matrix(cleaned)


def _project_out_component_nulls(
    vec: np.ndarray, labels: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Project ``vec`` against the per-component (weighted) constant vectors.

    With ``weights=None`` this removes the plain per-component mean — the
    null space of the level's Laplacian.  With ``weights=sqrt(D)`` it
    removes the per-component multiples of ``D^{1/2} 1`` — the null space
    of the *normalized* Laplacian, which the eigenvalue estimator needs.
    """
    if labels.size == 0:
        return vec
    num_components = int(labels.max()) + 1
    if weights is None:
        sums = np.bincount(labels, weights=vec, minlength=num_components)
        counts = np.bincount(labels, minlength=num_components).astype(float)
        counts[counts == 0] = 1.0
        return vec - (sums / counts)[labels]
    inner = np.bincount(labels, weights=vec * weights, minlength=num_components)
    norms = np.bincount(labels, weights=weights * weights, minlength=num_components)
    norms[norms == 0] = 1.0
    return vec - (inner / norms)[labels] * weights


def _normalized_lambda_min(level: ChainLevel, iterations: int = 60) -> float:
    """Smallest nonzero eigenvalue of the normalized Laplacian ``D^{-1/2} M D^{-1/2}``.

    This is the quantity the chain is trying to drive up: the two-hop
    reduction maps every pencil eigenvalue ``lambda`` to ``lambda (2 - lambda)``,
    roughly doubling the smallest one per level, so once it exceeds a
    constant the diagonal is a good approximate inverse and the chain can
    stop (depth ``O(log kappa)``, as in the paper's framework).

    "Nonzero" is taken per connected component: the two-hop reduction of a
    bipartite level is disconnected, and the extra constants-per-component
    directions are genuine null space, not ill-conditioning.

    Estimated by power iteration on the symmetric operator ``B = I - N / 2``
    (whose dominant non-null eigenvalue is ``1 - lambda_min / 2``),
    deflating the known null vectors ``D^{1/2} 1_C`` of ``N``.
    """
    diag = np.where(level.diag > 0, level.diag, 1.0)
    n = diag.shape[0]
    if n <= 2:
        return 2.0
    sqrt_d = np.sqrt(diag)
    labels = level.component_labels
    rng = np.random.default_rng(7)
    x = _project_out_component_nulls(rng.standard_normal(n), labels, sqrt_d)
    norm = np.linalg.norm(x)
    if norm < 1e-14:
        return 2.0
    x /= norm
    mu = 0.0
    for _ in range(iterations):
        # y = (I - N/2) x  with  N = D^{-1/2} M D^{-1/2}.
        lap_x = level.laplacian @ (x / sqrt_d)
        y = x - 0.5 * (lap_x / sqrt_d)
        y = _project_out_component_nulls(y, labels, sqrt_d)
        norm = np.linalg.norm(y)
        if norm < 1e-14:
            return 2.0
        mu = float(x @ y)
        x = y / norm
    # mu approximates 1 - lambda_min / 2 (clipped for numerical safety).
    mu = min(max(mu, 0.0), 1.0)
    return 2.0 * (1.0 - mu)


def build_inverse_chain(
    graph_or_laplacian: Graph | sp.spmatrix,
    epsilon_per_level: float = 0.25,
    rho: float = 8.0,
    config: Optional[SparsifierConfig] = None,
    max_levels: int = 16,
    sparsify: bool = True,
    stop_threshold: float = 0.4,
    seed: SeedLike = None,
) -> InverseChain:
    """Construct an approximate inverse chain for a Laplacian.

    Parameters
    ----------
    graph_or_laplacian:
        The level-1 system as a :class:`Graph` or a Laplacian matrix.
    epsilon_per_level:
        Spectral parameter passed to ``PARALLELSPARSIFY`` at each level
        (the paper sets it to ``1 / O(log kappa)``; the solver wrapper
        chooses it from an estimated condition number).
    rho:
        Sparsification factor requested at each level.
    config:
        Sparsifier configuration (practical constants by default).
    max_levels:
        Hard cap on chain depth.
    sparsify:
        If False, build the chain without sparsification (the
        "non-sparsified Peng–Spielman" baseline in benchmark E7).
    stop_threshold:
        Stop once the smallest nonzero normalized-Laplacian eigenvalue of
        the current level exceeds this value — the level is then well
        approximated by (a few damped Jacobi sweeps with) its diagonal.
    seed:
        RNG seed for the per-level sparsifier calls.
    """
    if isinstance(graph_or_laplacian, Graph):
        laplacian = graph_or_laplacian.laplacian()
    else:
        laplacian = sp.csr_matrix(graph_or_laplacian)
        if not is_laplacian(laplacian, tol=1e-6):
            raise SparsificationError(
                "build_inverse_chain expects a graph Laplacian; reduce SDD "
                "systems first (see repro.linalg.sdd)"
            )
    config = config if config is not None else SparsifierConfig()
    rng = as_rng(seed)
    level_rngs = split_rng(rng, max_levels)

    levels = [_split_level(laplacian)]
    for depth in range(1, max_levels):
        current = levels[-1]
        if _normalized_lambda_min(current) >= stop_threshold:
            break
        two_hop = _two_hop_laplacian(current)
        next_level = _split_level(two_hop)
        edges_before = next_level.edges_before_sparsify
        if sparsify and edges_before > 0:
            graph = from_laplacian(two_hop)
            result = parallel_sparsify(
                graph,
                epsilon=epsilon_per_level,
                rho=rho,
                config=config,
                seed=level_rngs[depth],
            )
            next_level = _split_level(result.sparsifier.laplacian())
            next_level.edges_before_sparsify = edges_before
            next_level.edges_after_sparsify = result.output_edges
            next_level.sparsified = True
        levels.append(next_level)

    return InverseChain(levels=levels, epsilon_per_level=epsilon_per_level, rho=rho)


def apply_chain(chain: InverseChain, rhs: np.ndarray, smoothing_steps: int = 3) -> np.ndarray:
    """Apply the approximate inverse operator defined by ``chain`` to ``rhs``.

    ``rhs`` may be a single ``(n,)`` vector or an ``(n, k)`` block of
    right-hand sides; a block is pushed through the whole recursion at
    once, so every level costs one flat sparse-dense product per operator
    regardless of ``k`` (the same "constant number of flat passes"
    discipline as the blocked CG driver this feeds).  The output shape
    matches the input shape.

    ``smoothing_steps`` damped Jacobi sweeps are applied at the last level
    on top of the diagonal inverse, which tightens the bottom-level
    approximation at negligible cost (the stopping rule guarantees the
    bottom level is well conditioned relative to its diagonal).
    """
    rhs_block = np.asarray(rhs, dtype=float)
    single = rhs_block.ndim == 1
    if single:
        rhs_block = rhs_block[:, None]
    if rhs_block.ndim != 2:
        raise ValueError(f"rhs must be 1-D or 2-D, got shape {np.shape(rhs)}")
    if rhs_block.shape[0] != chain.levels[0].dimension:
        raise ValueError(
            f"rhs must have length {chain.levels[0].dimension}, got {rhs_block.shape[0]}"
        )
    top = chain.levels[0]
    out = _apply_level(chain.levels, 0, top.project_out_nulls(rhs_block), smoothing_steps)
    return out[:, 0] if single else out


def _apply_level(
    levels: List[ChainLevel], index: int, b: np.ndarray, smoothing_steps: int
) -> np.ndarray:
    """One level of the Peng–Spielman recursion on an ``(n, k)`` block."""
    level = levels[index]
    diag = np.where(level.diag > 0, level.diag, 1.0)[:, None]
    if index == len(levels) - 1:
        x = b / diag
        # Damped Jacobi sweeps: x <- x + (2/3) D^{-1} (b - M x).  Damping
        # keeps the sweep contractive even when the normalized spectrum of
        # the bottom level reaches up towards 2 (e.g. near-bipartite parts).
        for _ in range(smoothing_steps):
            residual = b - level.laplacian @ x
            x = x + (2.0 / 3.0) * (residual / diag)
        return level.project_out_nulls(x)
    next_level = levels[index + 1]
    x1 = b / diag
    y = b + level.adjacency @ x1                       # (I + A D^{-1}) b
    z = _apply_level(levels, index + 1, next_level.project_out_nulls(y), smoothing_steps)
    x2 = z + (level.adjacency @ z) / diag              # (I + D^{-1} A) z
    return level.project_out_nulls(0.5 * (x1 + x2))


def chain_preconditioner(
    chain: InverseChain, smoothing_steps: int = 3
) -> Callable[[np.ndarray], np.ndarray]:
    """Return a callable suitable as a CG preconditioner.

    The callable accepts either a single residual vector or an ``(n, k)``
    residual block, so it plugs into both :func:`repro.linalg.cg.laplacian_solve`
    and the blocked :func:`repro.linalg.cg.laplacian_solve_many`.
    """

    def precondition(residual: np.ndarray) -> np.ndarray:
        return apply_chain(chain, residual, smoothing_steps=smoothing_steps)

    return precondition


# Preconditioner-chain defaults, tuned empirically (see DESIGN notes in the
# README "Solver selection" section): a preconditioner only needs a
# constant-factor spectral approximation per level, so we sparsify far more
# aggressively than the stand-alone solver would (single spanner bundle,
# loose per-level epsilon, high rho) — this keeps both the build time and
# the per-application cost low while still collapsing the CG iteration
# count by ~an order of magnitude on ill-conditioned graphs.
_PRECOND_RHO = 32.0
_PRECOND_EPSILON_PER_LEVEL = 0.5
_PRECOND_MAX_LEVELS = 12


def build_preconditioner_chain(
    graph: Graph,
    rho: Optional[float] = None,
    seed: int = 0,
    config: Optional[SparsifierConfig] = None,
) -> InverseChain:
    """Build an inverse chain tuned for *preconditioning* blocked CG.

    Unlike :func:`build_inverse_chain`'s defaults (sized for stand-alone
    accuracy), this uses cheap constants: ``bundle_t=1`` practical
    sparsifier config, ``epsilon_per_level=0.5`` and ``rho=32`` so each
    two-hop level is cut down hard before the next one is formed.
    """
    if rho is None:
        rho = _PRECOND_RHO
    if config is None:
        config = SparsifierConfig.practical(bundle_t=1)
    return build_inverse_chain(
        graph,
        epsilon_per_level=_PRECOND_EPSILON_PER_LEVEL,
        rho=float(rho),
        config=config,
        max_levels=_PRECOND_MAX_LEVELS,
        seed=int(seed),
    )


class ChainCache:
    """Build-once cache of preconditioner chains.

    A certification run solves against the same one or two Laplacians for
    *every* probe pair / edge / JL direction; the chain build is the only
    super-linear piece, so it must be amortized across all of those
    columns.  Chains are keyed by ``(batch_graph_digest(graph), rho,
    seed)`` and evicted LRU beyond ``max_entries`` (each cached chain holds
    ``total_nnz`` CSR entries, roughly ``25 * total_nnz`` bytes across its
    Laplacian + adjacency copies).  The digest is the batch journal's
    content hash: blake2b-128 over the vertex count and the exact edge
    arrays.  A reordered but Laplacian-equal edge list hashes
    differently, which costs a redundant build, never a stale hit.

    ``builds`` counts chain constructions over the cache's lifetime and is
    asserted on in tests: repeated certification of the same graph must
    not increment it.

    The cache is thread-safe: the LRU structure and the ``builds``/``hits``
    counters are guarded by a lock (thread-backend batches certify graphs
    concurrently, and an unguarded ``OrderedDict`` corrupts under
    concurrent ``move_to_end``/``popitem``).  Chain *construction* runs
    outside the lock — builds are seconds-long and must not serialize —
    so two threads missing on the same key may both build; the duplicate
    build is discarded in favor of the first entry, costing only time,
    never a wrong chain (builds for the same key are deterministic).
    """

    def __init__(self, max_entries: int = 16):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, InverseChain]" = OrderedDict()
        self._lock = threading.Lock()
        self.builds = 0
        self.hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all cached chains (the lifetime counters are kept)."""
        with self._lock:
            self._entries.clear()

    def chain_for(
        self,
        graph: Graph,
        rho: Optional[float] = None,
        seed: int = 0,
        config: Optional[SparsifierConfig] = None,
    ) -> InverseChain:
        """Return the cached chain for ``(graph, rho, seed)``, building once.

        ``seed`` must be an integer (not a ``Generator``) so the cache key
        is well defined.  ``config`` only matters on a cache miss; callers
        that vary it should use distinct caches.
        """
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(
                f"ChainCache needs an integer seed for a stable cache key, got {type(seed).__name__}"
            )
        effective_rho = float(_PRECOND_RHO if rho is None else rho)
        key = (batch_graph_digest(graph), effective_rho, int(seed))
        with self._lock:
            chain = self._entries.get(key)
            if chain is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return chain
        built = build_preconditioner_chain(
            graph, rho=effective_rho, seed=int(seed), config=config
        )
        with self._lock:
            self.builds += 1
            existing = self._entries.get(key)
            if existing is not None:
                # Lost a build race: keep the first entry (deterministic
                # builds make them interchangeable; keeping the winner
                # preserves identity for callers already holding it).
                self.hits += 1
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = built
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return built


_DEFAULT_CHAIN_CACHE = ChainCache()


def default_chain_cache() -> ChainCache:
    """Process-wide chain cache shared by the resistance and certification layers."""
    return _DEFAULT_CHAIN_CACHE
