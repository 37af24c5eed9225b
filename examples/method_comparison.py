"""Method comparison through the unified API — the paper's experiment in 10 lines.

Run with:  python examples/method_comparison.py

Every sparsifier in the package — the seven rows of the method table in
``repro/api/registry.py`` — is reachable through one front door::

    repro.sparsify(graph, method="koutis", epsilon=0.5, seed=7)

so comparing the paper's spanner-based algorithm against the baselines is
a loop over method names — no per-method glue.  ``compare_methods`` runs
them with identical parameters and ``comparison_table`` renders the
side-by-side summary (the CLI equivalent is ``repro-sparsify compare``).
"""

from __future__ import annotations

import repro
from repro.analysis.reporting import comparison_table
from repro.core.config import SparsifierConfig


def main() -> None:
    graph = repro.generators.erdos_renyi_graph(300, 0.3, seed=7, ensure_connected=True)
    print(f"input graph: n={graph.num_vertices}, m={graph.num_edges}")
    print(f"methods: {', '.join(repro.available_methods())}\n")

    # Identical epsilon / seed / config for every method: a fair comparison.
    results = repro.compare_methods(
        graph,
        ["koutis", "koutis-distributed", "spielman-srivastava", "uniform",
         "kapralov-panigrahi"],
        epsilon=0.5,
        seed=7,
        config=SparsifierConfig(bundle_t=2),
        certify=True,
    )
    print(comparison_table(results))

    # The unified result keeps the native result reachable for
    # method-specific detail, e.g. the paper algorithm's per-round decay:
    koutis = results[0]
    print("\nkoutis per-round decay:")
    for record in koutis.native.rounds:
        print(f"  round {record.round_index}: {record.input_edges} -> "
              f"{record.output_edges} edges")

    # Telemetry hook: per-round progress events (what a serving layer logs).
    events = []
    repro.sparsify(graph, method="koutis", epsilon=0.5, seed=7,
                   config=SparsifierConfig(bundle_t=2), progress=events.append)
    print(f"\nprogress events emitted: {[e.kind for e in events]}")


if __name__ == "__main__":
    main()
