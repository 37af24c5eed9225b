"""E5 — Theorem 5: PARALLELSPARSIFY quality, size vs rho, per-round decay.

Paper claims: output is a (1 ± eps) approximation w.h.p. with
O(n log^3 n log^3 rho / eps^2 + m / rho) edges; the per-round non-bundle
edge count decays geometrically, so total work is dominated by round 1.

Measured: output edges and certificates across rho, the per-round edge
counts, and how the m/rho term shows up for a dense input.
"""

import repro
from benchmarks.conftest import print_table
from repro.analysis.reporting import ExperimentTable
from repro.core.certificates import certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify

CONFIG = SparsifierConfig.practical(bundle_t=2)


def _rho_sweep(graph):
    table = ExperimentTable(
        "E5a-sparsify-vs-rho",
        ["rho", "rounds", "output_edges", "reduction", "eps_achieved", "work_per_m"],
    )
    rows = []
    for rho in (2, 4, 8, 16):
        result = repro.sparsify(graph, method="koutis", epsilon=0.5, rho=rho, config=CONFIG, seed=1)
        cert = certify_approximation(graph, result.sparsifier)
        table.add_row(
            rho=rho,
            rounds=result.num_rounds,
            output_edges=result.output_edges,
            reduction=round(result.reduction_factor, 2),
            eps_achieved=round(cert.epsilon_achieved, 3),
            work_per_m=round(result.cost.work / graph.num_edges, 1),
        )
        rows.append((rho, result, cert))
    return table, rows


def _per_round_decay(graph):
    table = ExperimentTable(
        "E5b-per-round", ["round", "epsilon", "input_edges", "bundle_edges", "sampled_edges", "output_edges"]
    )
    result = parallel_sparsify(graph, epsilon=0.5, rho=16, config=CONFIG, seed=99)
    for record in result.rounds:
        table.add_row(
            round=record.round_index,
            epsilon=round(record.epsilon, 3),
            input_edges=record.input_edges,
            bundle_edges=record.bundle_edges,
            sampled_edges=record.sampled_edges,
            output_edges=record.output_edges,
        )
    return table, result


def test_e5_sparsify_vs_rho(benchmark, dense_er_300):
    table, rows = benchmark.pedantic(_rho_sweep, args=(dense_er_300,), rounds=1, iterations=1)
    print_table(
        table,
        "Claims: edges ~ n polylog + m/rho (monotone in rho, flattening at the n polylog floor);\n"
        "quality stays a bounded spectral approximation for every rho.",
    )
    sizes = {rho: result.output_edges for rho, result, _ in rows}
    # Monotone non-increasing in rho (up to a little sampling noise).
    assert sizes[4] <= 1.05 * sizes[2]
    assert sizes[8] <= 1.05 * sizes[4]
    assert sizes[16] <= 1.05 * sizes[8]
    assert sizes[16] < sizes[2]
    # The reduction actually bites on a dense graph.
    assert sizes[16] < 0.8 * dense_er_300.num_edges
    for _, result, cert in rows:
        assert 0 < cert.lower <= cert.upper < 3.5


def test_e5_per_round_geometric_decay(benchmark, dense_er_300):
    table, result = benchmark.pedantic(_per_round_decay, args=(dense_er_300,), rounds=1, iterations=1)
    print_table(
        table,
        "Claim: the non-bundle edge population shrinks geometrically per round,\n"
        "so round 1 dominates the total work.",
    )
    inputs = [r.input_edges for r in result.rounds]
    assert all(b <= a for a, b in zip(inputs, inputs[1:]))
    if len(result.rounds) >= 2:
        works = [r.work for r in result.rounds]
        assert works[0] >= max(works[1:]) * 0.8  # first round carries the largest work


def test_e5_sparsify_timing(benchmark, er_200):
    result = benchmark(parallel_sparsify, er_200, 0.5, 4, CONFIG, 5)
    assert result.output_edges > 0
