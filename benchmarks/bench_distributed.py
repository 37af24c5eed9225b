"""E2 — Theorem 2 / Corollary 3: distributed spanner and bundle costs.

Paper claims: a spanner is computed in the synchronous distributed model in
O(log^2 n) rounds with O(m log n) communication and O(log n)-bit messages;
a t-bundle multiplies rounds and messages by t.

Measured: rounds, total messages, and the largest message (in words) from
the simulator, across graph sizes and bundle sizes.

Run directly, this file is also the round-engine benchmark: it times the
reference per-node simulator (:mod:`repro.spanners._reference`) against
the columnar engine (:mod:`repro.parallel.congest`) on banded and
power-law graphs up to
n = 4096, hard-asserts bit-identical spanner selections and identical
cost triples per pair, and persists ``BENCH_distributed.json``.  Timing
*assertions* (>= 5x at n = 2048) are gated on
``REPRO_BENCH_ASSERT_SPEEDUP=1`` — the CI container has a single usable
CPU and its timing noise should not fail the build; the JSON always
records the measured speedups.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py           # full matrix
    PYTHONPATH=src python benchmarks/bench_distributed.py --smoke   # tiny, CI
"""

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import er_graph, print_table
except ImportError:  # direct execution: sys.path[0] is benchmarks/ itself
    from conftest import er_graph, print_table
from repro.analysis.reporting import ExperimentTable
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import distributed_parallel_sample
from repro.graphs import generators as gen
from repro.spanners._reference import (
    reference_distributed_bundle_spanner,
    reference_distributed_spanner,
)
from repro.spanners.distributed_spanner import (
    distributed_baswana_sen_spanner,
    distributed_bundle_spanner,
)


def _distributed_spanner_sweep():
    table = ExperimentTable(
        "E2a-distributed-spanner",
        ["n", "m", "rounds", "rounds_per_log2n_sq", "messages", "messages_per_mlogn", "max_msg_words"],
    )
    rows = []
    for n in (64, 128, 256):
        g = er_graph(n, 24.0 / n, seed=n)
        result = distributed_baswana_sen_spanner(g, seed=n + 1)
        log_n = np.log2(n)
        table.add_row(
            n=n,
            m=g.num_edges,
            rounds=result.cost.rounds,
            rounds_per_log2n_sq=round(result.cost.rounds / log_n ** 2, 2),
            messages=result.cost.messages,
            messages_per_mlogn=round(result.cost.messages / (g.num_edges * log_n), 2),
            max_msg_words=result.cost.max_message_words,
        )
        rows.append((n, g, result))
    return table, rows


def _distributed_bundle_sweep(graph):
    table = ExperimentTable("E2b-distributed-sample", ["t", "rounds", "messages", "max_msg_words"])
    rows = []
    for t in (1, 2, 4):
        config = SparsifierConfig.practical(bundle_t=t)
        result = distributed_parallel_sample(graph, epsilon=0.5, config=config, seed=t)
        table.add_row(
            t=t,
            rounds=result.cost.rounds,
            messages=result.cost.messages,
            max_msg_words=result.cost.max_message_words,
        )
        rows.append((t, result))
    return table, rows


def test_e2_distributed_spanner_costs(benchmark):
    table, rows = benchmark.pedantic(_distributed_spanner_sweep, rounds=1, iterations=1)
    print_table(
        table,
        "Claims: rounds = O(log^2 n); messages = O(m log n); message size O(log n) words.",
    )
    for n, g, result in rows:
        log_n = np.log2(n)
        assert result.cost.rounds <= 3.0 * log_n ** 2
        assert result.cost.messages <= 6.0 * g.num_edges * log_n
        assert result.cost.max_message_words <= 4 * int(np.ceil(log_n)) + 16
    # Rounds grow (poly)logarithmically, not linearly with n.
    rounds = [result.cost.rounds for _, _, result in rows]
    assert rounds[-1] / rounds[0] < (256 / 64) / 1.2


def _sharded_backend_sweep(graph):
    """Shard-parallel distributed sample across backends: cost + timing."""
    table = ExperimentTable(
        "E2c-sharded-backends",
        ["num_shards", "backend", "workers", "seconds", "rounds", "messages", "boundary"],
    )
    rows = []
    sweep = [(1, "serial", 1), (8, "serial", 1), (8, "thread", 4), (8, "process", 4)]
    for num_shards, backend, workers in sweep:
        config = SparsifierConfig.practical(
            bundle_t=2, num_shards=num_shards, backend=backend, max_workers=workers
        )
        start = time.perf_counter()
        result = distributed_parallel_sample(graph, epsilon=0.5, config=config, seed=9)
        elapsed = time.perf_counter() - start
        table.add_row(
            num_shards=num_shards,
            backend=backend,
            workers=workers,
            seconds=round(elapsed, 3),
            rounds=result.cost.rounds,
            messages=result.cost.messages,
            boundary=result.boundary_edges,
        )
        rows.append((num_shards, backend, workers, result))
    return table, rows


def test_e2_sharded_backend_equivalence(benchmark, grid_16):
    table, rows = benchmark.pedantic(_sharded_backend_sweep, args=(grid_16,), rounds=1, iterations=1)
    print_table(
        table,
        "Claims: concurrent shard networks cut rounds/communication vs the\n"
        "whole-graph protocol; backends change wall-clock only, never outputs.",
    )
    sharded = [result for num_shards, _, _, result in rows if num_shards == 8]
    reference = sharded[0]
    for result in sharded[1:]:
        assert np.array_equal(result.bundle_edge_indices, reference.bundle_edge_indices)
        assert np.array_equal(result.sampled_edge_indices, reference.sampled_edge_indices)
        assert result.cost == reference.cost
    unsharded = next(result for num_shards, _, _, result in rows if num_shards == 1)
    # Boundary edges never enter a shard protocol: communication drops.
    assert reference.cost.messages < unsharded.cost.messages
    assert reference.cost.rounds <= unsharded.cost.rounds


def test_e2_distributed_bundle_costs(benchmark, er_200):
    table, rows = benchmark.pedantic(
        _distributed_bundle_sweep, args=(er_200,), rounds=1, iterations=1
    )
    print_table(table, "Claim: rounds and communication scale ~linearly with the bundle size t.")
    costs = {t: result.cost for t, result in rows}
    assert costs[2].rounds > costs[1].rounds
    assert costs[4].rounds > costs[2].rounds
    assert costs[4].messages > costs[1].messages
    # Message size stays in the O(log n) budget regardless of t.
    for _, result in rows:
        assert result.cost.max_message_words <= 4 * int(np.ceil(np.log2(er_200.num_vertices))) + 16


# --------------------------------------------------------------------- #
# Round-engine benchmark CLI: reference simulator vs columnar engine.
# --------------------------------------------------------------------- #

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_distributed.json"
SMOKE_RESULT_PATH = REPO_ROOT / "BENCH_distributed_smoke.json"
SEED = 20140623  # SPAA'14


def build_graph(scenario: str, n: int):
    if scenario == "banded":
        return gen.banded_graph(n, 12)
    if scenario == "powerlaw":
        return gen.barabasi_albert_graph(n, 8, seed=SEED)
    raise ValueError(f"unknown scenario {scenario!r}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def run_spanner_case(scenario: str, n: int) -> dict:
    """Time one distributed spanner on both engines; assert exact parity."""
    graph = build_graph(scenario, n)
    ref, ref_s = _timed(reference_distributed_spanner, graph, seed=SEED + n)
    col, col_s = _timed(distributed_baswana_sen_spanner, graph, seed=SEED + n)
    assert np.array_equal(ref.edge_indices, col.edge_indices), (
        f"engine outputs drifted on {scenario} n={n}"
    )
    assert ref.cost == col.cost, f"cost triples drifted on {scenario} n={n}"
    return {
        "scenario": scenario,
        "n": n,
        "m": graph.num_edges,
        "workload": "spanner",
        "t": 1,
        "reference_seconds": round(ref_s, 4),
        "columnar_seconds": round(col_s, 4),
        "speedup": round(ref_s / max(col_s, 1e-9), 2),
        "rounds": col.cost.rounds,
        "messages": col.cost.messages,
        "max_message_words": col.cost.max_message_words,
    }


def run_bundle_case(scenario: str, n: int, t: int) -> dict:
    """Time one t-bundle peel on both engines; assert exact parity."""
    graph = build_graph(scenario, n).coalesce()
    ref, ref_s = _timed(reference_distributed_bundle_spanner, graph, t=t, seed=SEED + t)
    col, col_s = _timed(distributed_bundle_spanner, graph, t=t, seed=SEED + t)
    assert np.array_equal(ref.edge_indices, col.edge_indices), (
        f"bundle outputs drifted on {scenario} n={n} t={t}"
    )
    assert ref.cost == col.cost, f"bundle cost triples drifted on {scenario} n={n} t={t}"
    return {
        "scenario": scenario,
        "n": n,
        "m": graph.num_edges,
        "workload": "t-bundle",
        "t": t,
        "reference_seconds": round(ref_s, 4),
        "columnar_seconds": round(col_s, 4),
        "speedup": round(ref_s / max(col_s, 1e-9), 2),
        "rounds": col.cost.rounds,
        "messages": col.cost.messages,
        "max_message_words": col.cost.max_message_words,
    }


def check_determinism(graph) -> bool:
    """Two columnar runs with one seed must select identical edges."""
    first = distributed_baswana_sen_spanner(graph, seed=SEED)
    second = distributed_baswana_sen_spanner(graph, seed=SEED)
    return bool(np.array_equal(first.edge_indices, second.edge_indices)) and (
        first.cost == second.cost
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: assert engine parity + JSON emission, no timing claims",
    )
    parser.add_argument("--out", type=Path, default=None, help="override output JSON path")
    args = parser.parse_args()

    scenarios = ["banded", "powerlaw"]
    if args.smoke:
        sizes = [64]
        bundle_cases = [("banded", 64, 2)]
        out_path = args.out or SMOKE_RESULT_PATH
    else:
        sizes = [512, 1024, 2048, 4096]
        bundle_cases = [("banded", 1024, 4), ("powerlaw", 1024, 4)]
        out_path = args.out or RESULT_PATH

    rows = []
    for scenario in scenarios:
        for n in sizes:
            rows.append(run_spanner_case(scenario, n))
    for scenario, n, t in bundle_cases:
        rows.append(run_bundle_case(scenario, n, t))

    table = ExperimentTable(
        "distributed-round-engine",
        [
            "scenario", "n", "m", "workload", "t",
            "reference_seconds", "columnar_seconds", "speedup",
            "rounds", "messages", "max_message_words",
        ],
    )
    for row in rows:
        table.add_row(**row)
    print(table.render())

    deterministic = check_determinism(build_graph("banded", 64))
    assert deterministic, "columnar engine is not deterministic for a fixed seed"

    assert_speedup = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1"
    if assert_speedup and not args.smoke:
        # Acceptance workload: >= 5x on both n=2048 spanner scenarios.
        for row in rows:
            if row["n"] == 2048 and row["workload"] == "spanner":
                assert row["speedup"] >= 5.0, (
                    f"expected >=5x on {row['scenario']} n=2048, got {row['speedup']}x"
                )

    payload = {
        "experiment": "distributed-round-engine",
        "seed": SEED,
        "smoke": args.smoke,
        "speedup_asserted": assert_speedup and not args.smoke,
        "bit_identical_across_engines": True,  # hard-asserted per row above
        "deterministic": deterministic,
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    parsed = json.loads(out_path.read_text())
    assert parsed["results"], f"no benchmark rows written to {out_path}"
    print(f"\nwrote {out_path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
