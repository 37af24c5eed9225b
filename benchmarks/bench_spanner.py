"""Spanner hot-path benchmark: seed vs. vectorized Baswana–Sen / t-bundle.

The sparsifier stack bottoms out in ``t_bundle_spanner`` calling
``baswana_sen_spanner`` t = O(log^2 n / eps^2) times, so this benchmark
times exactly that hot path in two implementations:

* **seed**: :mod:`repro.spanners._reference` — the pre-vectorization
  implementation preserved verbatim (per-vertex Python loop, Graph
  rebuild per peel round);
* **optimized**: the shipped :mod:`repro.spanners.baswana_sen` /
  :mod:`repro.spanners.bundle` — directed edge rows ranked once per
  bundle, one packed-key sort and one segmented minimum per clustering
  iteration in a row workspace the call allocates once, components
  peeled on a live-edge vector.

Workloads cover the scenario matrix the sparsifier meets in practice —
banded/locality, 2-D grid, power-law (Barabási–Albert), Erdős–Rényi — at
n in {500, 2000}, timing one spanner call and one full t-bundle at
t in {8, 32}.  Every timed pair also hard-asserts *bit-identical* edge
selections, so the benchmark doubles as an end-to-end equivalence check.

Results are printed as an experiment table and persisted to
``BENCH_spanner.json`` at the repo root, with the CPU count, machine,
NumPy version and BLAS/OpenMP thread settings they were measured on.
Wall-clock *assertions* are gated on ``REPRO_BENCH_ASSERT_SPEEDUP=1``
(the CI container has a single usable CPU and timing noise there should
not fail the build); the JSON always records the measured speedups.

Usage::

    PYTHONPATH=src python benchmarks/bench_spanner.py           # full matrix
    PYTHONPATH=src python benchmarks/bench_spanner.py --smoke   # tiny, CI

``--smoke`` runs tiny sizes, asserts determinism and JSON emission, and
never asserts timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import ExperimentTable
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.spanners._reference import (
    reference_baswana_sen_spanner,
    reference_t_bundle_spanner,
)
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.bundle import t_bundle_spanner

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_spanner.json"
SMOKE_RESULT_PATH = REPO_ROOT / "BENCH_spanner_smoke.json"
SEED = 20140623  # SPAA'14


def build_graph(scenario: str, n: int) -> Graph:
    if scenario == "banded":
        return gen.banded_graph(n, 12)
    if scenario == "grid2d":
        side = int(np.sqrt(n))
        return gen.grid_graph(side, side)
    if scenario == "powerlaw":
        return gen.barabasi_albert_graph(n, 8, seed=SEED)
    if scenario == "er":
        p = min(16.0 / n, 0.5)
        return gen.erdos_renyi_graph(n, p, seed=SEED, ensure_connected=True)
    raise ValueError(f"unknown scenario {scenario!r}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def run_case(scenario: str, n: int, bundle_ts: list) -> list:
    """Time seed vs optimized on one graph; returns one row dict per workload."""
    graph = build_graph(scenario, n)
    # Record the actual vertex count (grid2d rounds n down to a square).
    n = graph.num_vertices
    rows = []

    seed_result, seed_s = _timed(reference_baswana_sen_spanner, graph, seed=SEED + 1)
    opt_result, opt_s = _timed(baswana_sen_spanner, graph, seed=SEED + 1)
    assert np.array_equal(seed_result.edge_indices, opt_result.edge_indices), (
        f"spanner selection drifted on {scenario} n={n}"
    )
    rows.append(
        {
            "scenario": scenario,
            "n": n,
            "m": graph.num_edges,
            "workload": "spanner",
            "t": 1,
            "seed_seconds": round(seed_s, 4),
            "optimized_seconds": round(opt_s, 4),
            "speedup": round(seed_s / max(opt_s, 1e-9), 2),
            "selected_edges": int(opt_result.edge_indices.shape[0]),
        }
    )

    for t in bundle_ts:
        seed_bundle, seed_s = _timed(reference_t_bundle_spanner, graph, t=t, seed=SEED + t)
        opt_bundle, opt_s = _timed(t_bundle_spanner, graph, t=t, seed=SEED + t)
        assert np.array_equal(seed_bundle.edge_indices, opt_bundle.edge_indices), (
            f"bundle selection drifted on {scenario} n={n} t={t}"
        )
        rows.append(
            {
                "scenario": scenario,
                "n": n,
                "m": graph.num_edges,
                "workload": "t-bundle",
                "t": t,
                "seed_seconds": round(seed_s, 4),
                "optimized_seconds": round(opt_s, 4),
                "speedup": round(seed_s / max(opt_s, 1e-9), 2),
                "selected_edges": int(opt_bundle.num_edges),
            }
        )
    return rows


def check_determinism(smoke_graph: Graph) -> bool:
    """Two optimized runs with one seed must select identical edges."""
    first = t_bundle_spanner(smoke_graph, t=2, seed=SEED)
    second = t_bundle_spanner(smoke_graph, t=2, seed=SEED)
    return bool(np.array_equal(first.edge_indices, second.edge_indices))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: assert JSON emission + determinism, no timing claims",
    )
    parser.add_argument("--out", type=Path, default=None, help="override output JSON path")
    args = parser.parse_args()

    if args.smoke:
        scenarios = ["banded", "powerlaw"]
        sizes = [64]
        bundle_ts = [2]
        out_path = args.out or SMOKE_RESULT_PATH
    else:
        scenarios = ["banded", "grid2d", "powerlaw", "er"]
        sizes = [500, 2000]
        bundle_ts = [8, 32]
        out_path = args.out or RESULT_PATH

    rows = []
    for scenario in scenarios:
        for n in sizes:
            rows.extend(run_case(scenario, n, bundle_ts))

    table = ExperimentTable(
        "spanner-hot-path",
        [
            "scenario", "n", "m", "workload", "t",
            "seed_seconds", "optimized_seconds", "speedup", "selected_edges",
        ],
    )
    for row in rows:
        table.add_row(**row)
    print(table.render())

    deterministic = check_determinism(build_graph("banded", 64))
    assert deterministic, "optimized bundle is not deterministic for a fixed seed"

    assert_speedup = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1"
    if assert_speedup and not args.smoke:
        # Acceptance workload: the n=2000 power-law t-bundles must be >= 3x.
        for row in rows:
            if row["scenario"] == "powerlaw" and row["n"] == 2000 and row["workload"] == "t-bundle":
                assert row["speedup"] >= 3.0, (
                    f"expected >=3x on powerlaw n=2000 t={row['t']}, got {row['speedup']}x"
                )

    payload = {
        "experiment": "spanner-hot-path",
        "seed": SEED,
        "smoke": args.smoke,
        "speedup_asserted": assert_speedup and not args.smoke,
        "bit_identical_to_seed": True,  # hard-asserted per row above
        "deterministic": deterministic,
        "hardware": {
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "thread_env": {
                name: os.environ.get(name)
                for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    # Emission check: the file must exist and parse back.
    parsed = json.loads(out_path.read_text())
    assert parsed["results"], f"no benchmark rows written to {out_path}"
    print(f"\nwrote {out_path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
