"""Quickstart: sparsify a dense graph and check the result.

Run with:  python examples/quickstart.py

Demonstrates the three-line workflow of the library:

1. build (or load) a weighted graph,
2. run ``PARALLELSPARSIFY`` (Algorithm 2 of the paper) through the
   unified front door ``repro.sparsify`` (swap ``method=`` to run any
   other built-in sparsifier — see ``examples/method_comparison.py``),
3. measure the spectral approximation certificate of the output.
"""

from __future__ import annotations

import repro
from repro import SparsifierConfig, certify_approximation, generators
from repro.analysis.spectral import approximation_report


def main() -> None:
    # A dense-ish Erdős–Rényi graph: 400 vertices, ~24k edges.
    graph = generators.erdos_renyi_graph(400, 0.3, seed=7, ensure_connected=True)
    print(f"input graph: n={graph.num_vertices}, m={graph.num_edges}")

    # Practical configuration: bundle of ~log n spanners per round.
    config = SparsifierConfig.practical(bundle_t=2)
    unified = repro.sparsify(
        graph, method="koutis", epsilon=0.5, rho=8, config=config, seed=1
    )
    result = unified.native  # the method's own SparsifyResult, rounds included

    print(f"sparsifier: m={unified.output_edges} "
          f"({unified.reduction_factor:.2f}x fewer edges, {len(result.rounds)} rounds)")
    for record in result.rounds:
        print(f"  round {record.round_index}: {record.input_edges} -> {record.output_edges} edges "
              f"(bundle {record.bundle_edges}, sampled {record.sampled_edges})")

    certificate = certify_approximation(graph, result.sparsifier)
    print(f"spectral certificate: {certificate.lower:.3f} * G  <=  H  <=  {certificate.upper:.3f} * G")
    print(f"  (equivalently a (1 +- {certificate.epsilon_achieved:.3f}) approximation)")

    # Full quality report: quadratic forms, effective resistances, connectivity.
    report = approximation_report(graph, result.sparsifier, seed=3)
    print(f"random quadratic-form ratios in [{report.quadratic_ratio_min:.3f}, "
          f"{report.quadratic_ratio_max:.3f}]")
    print(f"effective-resistance ratios in [{report.resistance_ratio_min:.3f}, "
          f"{report.resistance_ratio_max:.3f}]")
    print(f"connectivity preserved: {report.connectivity_preserved}")


if __name__ == "__main__":
    main()
