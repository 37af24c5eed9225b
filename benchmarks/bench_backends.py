"""E12 — execution-backend scaling of a batch of independent graphs.

Each ``PARALLELSAMPLE`` round runs on the whole graph in one call, so the
parallelism an execution backend can add is across independent jobs:
:meth:`repro.api.Engine.run_many` over a batch of graphs.  This
experiment times one such batch — ``NUM_GRAPHS`` Erdős–Rényi graphs — for
both engines:

* **koutis**: the vectorised pipeline
  (:func:`repro.core.sparsify.parallel_sparsify`), NumPy-dominated, so
  the thread backend overlaps jobs only where the kernels release the
  GIL;
* **koutis-distributed**: the CONGEST-simulator pipeline
  (:func:`repro.core.distributed_sparsify.distributed_parallel_sparsify`),
  where the process backend is the one that helps.

Backends run serial, thread×2 and process×2.  Results are printed as an
experiment table and persisted to ``BENCH_backends.json`` at the repo
root.  Hard assertion: every backend returns bit-identical sparsifiers
for every graph of the batch.  Speedup assertions (process×2 beats
serial for both engines) are gated on ``REPRO_BENCH_ASSERT_SPEEDUP=1``
and at least two usable CPUs — on a single-core or busy runner no
backend can be relied on to beat serial, and the JSON records the
measured times either way.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import er_graph, print_table
from repro.analysis.reporting import ExperimentTable
from repro.api import Engine, SparsifyRequest
from repro.core.config import SparsifierConfig

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
SEED = 20140623  # SPAA'14
NUM_GRAPHS = 8
NUM_VERTICES = 500
EDGE_PROBABILITY = 0.46
RHO = 16.0
METHODS = ("koutis", "koutis-distributed")
BACKEND_CONFIGS = [
    ("serial", 1),
    ("thread", 2),
    ("process", 2),
]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _edge_tuple(graph):
    g = graph.coalesce()
    return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())


def _run_batch(method: str, graphs: list) -> list:
    """Time one ``run_many`` batch per backend config; return row dicts."""
    rows = []
    for backend, workers in BACKEND_CONFIGS:
        config = SparsifierConfig.practical(backend=backend, max_workers=workers)
        engine = Engine(SparsifyRequest(method=method, epsilon=0.5, rho=RHO, seed=SEED, config=config))
        start = time.perf_counter()
        batch = engine.run_many(graphs)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "method": method,
                "backend": backend,
                "workers": workers,
                "seconds": round(elapsed, 4),
                "output_edges": batch.total_output_edges,
                "edges": [_edge_tuple(result.sparsifier) for result in batch.results],
            }
        )
    return rows


def _backend_sweep():
    graphs = [er_graph(NUM_VERTICES, EDGE_PROBABILITY, seed=s) for s in range(NUM_GRAPHS)]
    rows = [row for method in METHODS for row in _run_batch(method, graphs)]
    table = ExperimentTable(
        "E12-backend-scaling",
        ["method", "backend", "workers", "seconds", "output_edges", "speedup_vs_serial"],
    )
    serial_times = {row["method"]: row["seconds"] for row in rows if row["backend"] == "serial"}
    for row in rows:
        row["speedup_vs_serial"] = round(serial_times[row["method"]] / max(row["seconds"], 1e-9), 2)
        table.add_row(**{key: row[key] for key in table.columns})
    return table, rows, sum(g.num_edges for g in graphs)


def test_e12_backend_scaling(benchmark):
    table, rows, input_edges = benchmark.pedantic(_backend_sweep, rounds=1, iterations=1)
    cpus = _usable_cpus()
    print_table(
        table,
        f"Claim: backends change wall-clock, never results (usable CPUs here: {cpus}).\n"
        f"{NUM_GRAPHS} independent graphs per batch; only run_many runs jobs at once.",
    )

    # Hard invariant: every backend produced the exact same sparsifier for
    # every graph of the batch, per method.
    for method in METHODS:
        edge_sets = [row["edges"] for row in rows if row["method"] == method]
        assert all(edges == edge_sets[0] for edges in edge_sets)
        outputs = {row["output_edges"] for row in rows if row["method"] == method}
        assert len(outputs) == 1 and outputs.pop() < input_edges

    by_key = {(row["method"], row["backend"]): row["seconds"] for row in rows}
    assert_speedup = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1" and cpus >= 2
    if assert_speedup:
        for method in METHODS:
            assert by_key[(method, "process")] < by_key[(method, "serial")], method

    payload = {
        "experiment": "E12-backend-scaling",
        "seed": SEED,
        "workload": {
            "graphs": NUM_GRAPHS,
            "generator": f"erdos_renyi_graph({NUM_VERTICES}, {EDGE_PROBABILITY})",
            "rho": RHO,
            "input_edges": input_edges,
        },
        "speedup_asserted": assert_speedup,
        "hardware": {
            "usable_cpus": cpus,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": [{key: row[key] for key in table.columns} for row in rows],
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
