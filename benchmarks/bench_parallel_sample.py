"""E4 — Theorem 4: one round of PARALLELSAMPLE.

Paper claims: the output is a (1 ± eps) spectral approximation w.h.p., its
size is (bundle) + about half of the remaining edges in expectation, and
the work is O(m log^3 n / eps^2) with polylog depth.

Measured: the spectral certificate, the realised keep-rate of non-bundle
edges (~ 1/4 kept at weight 4, i.e. halving their count would take two
rounds — one round keeps m/4 of them; the paper's "m/2" counts the
*expected number* surviving two coin flips per round pair; we report the
raw 1/4 keep rate and the resulting size), and the PRAM counters.  The
theory-mode row documents the threshold-of-applicability degeneracy.
"""

from benchmarks.conftest import print_table
from repro.analysis.reporting import ExperimentTable
from repro.core.certificates import certify_approximation
from repro.core.config import SparsifierConfig
from repro.core.sample import parallel_sample


def _sample_quality_sweep(graph):
    table = ExperimentTable(
        "E4-parallelsample",
        ["mode", "epsilon", "t", "bundle_edges", "kept_outside", "keep_rate",
         "output_edges", "eps_achieved", "work_per_m", "degenerate"],
    )
    rows = []
    for mode, epsilon in [("practical", 1.0), ("practical", 0.5), ("practical", 0.25), ("theory", 0.5)]:
        config = (
            SparsifierConfig.theory(epsilon=epsilon)
            if mode == "theory"
            else SparsifierConfig.practical(epsilon=epsilon)
        )
        result = parallel_sample(graph, epsilon=epsilon, config=config, seed=int(epsilon * 100))
        outside = result.input_edges - len(result.bundle_edge_indices)
        keep_rate = len(result.sampled_edge_indices) / outside if outside else float("nan")
        cert = certify_approximation(graph, result.sparsifier)
        table.add_row(
            mode=mode,
            epsilon=epsilon,
            t=result.t,
            bundle_edges=len(result.bundle_edge_indices),
            kept_outside=len(result.sampled_edge_indices),
            keep_rate=round(keep_rate, 3) if outside else "n/a",
            output_edges=result.output_edges,
            eps_achieved=round(cert.epsilon_achieved, 3),
            work_per_m=round(result.cost.work / max(result.input_edges, 1), 1),
            degenerate=result.degenerate,
        )
        rows.append((mode, epsilon, result, cert, keep_rate if outside else None))
    return table, rows


def test_e4_parallel_sample_quality_and_size(benchmark, dense_er_300):
    table, rows = benchmark.pedantic(
        _sample_quality_sweep, args=(dense_er_300,), rounds=1, iterations=1
    )
    print_table(
        table,
        "Claims: non-bundle edges kept at rate ~1/4 (weight x4); output is a bounded\n"
        "spectral approximation; theory-mode constants exceed the graph (degenerate).",
    )
    practical = [row for row in rows if row[0] == "practical"]
    theory = [row for row in rows if row[0] == "theory"]
    # Theory constants swallow the graph: the paper's threshold of applicability.
    assert all(result.degenerate for _, _, result, _, _ in theory)
    for _, _, result, cert, keep_rate in practical:
        assert not result.degenerate
        assert 0.15 < keep_rate < 0.35        # Bernoulli(1/4) sampling
        assert cert.lower > 0.2 and cert.upper < 3.0
        assert result.output_edges < result.input_edges
    # Smaller epsilon => larger bundle => better measured approximation (on average).
    eps_to_quality = {eps: cert.epsilon_achieved for _, eps, _, cert, _ in practical}
    assert eps_to_quality[0.25] <= eps_to_quality[1.0] + 0.15


def test_e4_sample_timing(benchmark, er_200):
    config = SparsifierConfig.practical()
    result = benchmark(parallel_sample, er_200, 0.5, config, 1)
    assert result.output_edges > 0
