"""Algorithm 2: ``PARALLELSPARSIFY``.

    Input: graph G, parameters epsilon, rho
    1. G_0 := G
    2. For i = 1 .. ceil(log2 rho):
    3.     G_i := PARALLELSAMPLE(G_{i-1}, epsilon / ceil(log2 rho))
    4. Return G_{ceil(log2 rho)}

(The paper's pseudocode writes ``PARALLELSPARSIFY`` on line 3; it is the
obvious self-reference typo for ``PARALLELSAMPLE`` — the text and the proof
of Theorem 5 iterate Algorithm 1.)

Theorem 5: the output is a ``(1 ± eps)`` approximation w.h.p. with
``O(n log^3 n log^3 rho / eps^2 + m / rho)`` edges in expectation; the
non-bundle edge count halves per round, so total work is dominated by the
first round.

The implementation records one :class:`RoundRecord` per round so the
benchmarks can reproduce the geometric size decay and the per-round
epsilon budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample
from repro.exceptions import SparsificationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import PRAMCost
from repro.utils.rng import SeedLike, as_rng, split_rng

__all__ = ["RoundRecord", "SparsifyResult", "parallel_sparsify"]


@dataclass
class RoundRecord:
    """Summary of one ``PARALLELSAMPLE`` round inside ``PARALLELSPARSIFY``."""

    round_index: int
    epsilon: float
    t: int
    input_edges: int
    output_edges: int
    bundle_edges: int
    sampled_edges: int
    degenerate: bool
    work: float
    depth: float


@dataclass
class SparsifyResult:
    """Output of ``PARALLELSPARSIFY``.

    Attributes
    ----------
    sparsifier:
        The final graph ``G_{ceil(log2 rho)}`` (coalesced).
    rounds:
        Per-round records, in execution order.
    epsilon / rho:
        The overall parameters requested.
    input_edges / output_edges:
        Edge counts of the original input and the (coalesced) output.
    cost:
        Total PRAM work/depth over all rounds.
    stopped_early:
        True if iteration stopped before ``ceil(log2 rho)`` rounds because
        a round became degenerate (no further reduction was possible).
    """

    sparsifier: Graph
    rounds: List[RoundRecord]
    epsilon: float
    rho: float
    input_edges: int
    output_edges: int
    cost: PRAMCost = field(default_factory=PRAMCost)
    stopped_early: bool = False


def sparsify_rounds(
    graph: Graph,
    epsilon: Optional[float],
    rho: float,
    config: Optional[SparsifierConfig],
    seed: SeedLike,
    sample_round: Callable[..., Any],
) -> Tuple[float, Graph, List[Any], bool]:
    """Algorithm 2's loop, shared by :func:`parallel_sparsify` and its distributed twin.

    Checks ``epsilon`` (default ``config.epsilon``) lies in ``(0, 1]`` and
    ``rho >= 1``, then runs ``ceil(log2 rho)`` rounds of
    ``sample_round(round_index, graph, round_epsilon, config, rng)``, a
    ``PARALLELSAMPLE`` round returning a result with ``sparsifier`` and
    ``degenerate`` attributes.  ``round_index`` is 1-based; every round
    gets ``epsilon / ceil(log2 rho)`` and its own stream split from
    ``seed``.  A round's output is coalesced before the next round
    consumes it (the multigraph and the coalesced graph are spectrally
    identical; coalescing keeps the working arrays, and so the measured
    work, small), and a degenerate round — its bundle absorbed every
    edge, so no further reduction is possible — ends the loop.

    Returns ``(epsilon, output graph, round results, stopped_early)``;
    with ``rho == 1`` no round runs and the output is ``graph`` itself.
    """
    config = config if config is not None else SparsifierConfig()
    eps = config.epsilon if epsilon is None else float(epsilon)
    if not 0 < eps <= 1:
        raise SparsificationError(f"epsilon must lie in (0, 1], got {eps}")
    if rho < 1:
        raise SparsificationError(f"rho must be >= 1, got {rho}")

    num_rounds = SparsifierConfig.num_rounds(rho)
    per_round_eps = eps / max(num_rounds, 1)
    round_rngs = split_rng(as_rng(seed), max(num_rounds, 1))
    current = graph
    results: List[Any] = []
    for round_index in range(num_rounds):
        result = sample_round(round_index + 1, current, per_round_eps, config, round_rngs[round_index])
        results.append(result)
        current = result.sparsifier.coalesce()
        if result.degenerate:
            return eps, current, results, True
    return eps, current, results, False


def parallel_sparsify(
    graph: Graph,
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: SeedLike = None,
    on_round: Optional[Callable[[RoundRecord], None]] = None,
) -> SparsifyResult:
    """Run Algorithm 2 (``PARALLELSPARSIFY``) on ``graph``.

    Parameters
    ----------
    graph:
        Input weighted graph.
    epsilon:
        Overall spectral approximation parameter (default from config).
    rho:
        Sparsification factor of choice; ``ceil(log2 rho)`` sampling rounds
        are executed (see :func:`sparsify_rounds`: each round's output is
        coalesced, and a degenerate round stops the iteration).
    config:
        :class:`SparsifierConfig` controlling bundle sizes and sampling.
        Every round runs on the whole graph in the calling thread (rounds
        are sequential — round ``i+1`` consumes round ``i``'s output); the
        config's ``backend`` / ``max_workers`` matter only when this call
        is one job of :meth:`repro.api.Engine.run_many`.
    seed:
        RNG seed; each round gets an independent sub-stream.
    on_round:
        Optional progress callback invoked with each :class:`RoundRecord`
        as soon as its round completes — the telemetry hook the unified
        engine (:mod:`repro.api`) exposes for serving.  The callback
        never affects the output; exceptions it raises propagate.

    Returns
    -------
    SparsifyResult
    """
    records: List[RoundRecord] = []

    def sample_round(round_index, current, round_eps, round_config, rng):
        result = parallel_sample(current, epsilon=round_eps, config=round_config, seed=rng)
        record = RoundRecord(
            round_index=round_index,
            epsilon=round_eps,
            t=result.t,
            input_edges=result.input_edges,
            output_edges=result.output_edges,
            bundle_edges=int(result.bundle_edge_indices.shape[0]),
            sampled_edges=int(result.sampled_edge_indices.shape[0]),
            degenerate=result.degenerate,
            work=result.cost.work,
            depth=result.cost.depth,
        )
        records.append(record)
        if on_round is not None:
            on_round(record)
        return result

    eps, final, results, stopped_early = sparsify_rounds(
        graph, epsilon, rho, config, seed, sample_round
    )
    return SparsifyResult(
        sparsifier=final,
        rounds=records,
        epsilon=eps,
        rho=float(rho),
        input_edges=graph.num_edges,
        output_edges=final.num_edges,
        cost=sum((r.cost for r in results), PRAMCost()),
        stopped_early=stopped_early,
    )
