"""E7 — Theorem 6: the improved parallel SDD solver.

Paper claims: plugging PARALLELSPARSIFY into the Peng–Spielman framework
keeps every chain level near the input size (instead of densifying),
bounds the total chain size, and yields a solver whose total work beats
both the non-sparsified chain and (on ill-conditioned inputs) plain CG.

Measured on 2-D grid Laplacians and an SDD system: chain depth, per-level
and total non-zeros with and without sparsification, outer iterations, and
the resulting work estimates, against plain CG and Jacobi-CG baselines.

Runs two ways: under pytest as part of the benchmark suite, or as a
script for CI (``PYTHONPATH=src python benchmarks/bench_solver.py
--smoke`` — small sizes, writes ``BENCH_solver_smoke.json``, asserts the
qualitative claims but makes no timing claims).
"""

import argparse
import json
from pathlib import Path

import numpy as np

try:
    from benchmarks.conftest import print_table
except ImportError:  # script execution: sys.path[0] is benchmarks/ itself
    from conftest import print_table
from repro.analysis.reporting import ExperimentTable
from repro.core.config import SparsifierConfig
from repro.graphs import generators as gen
from repro.solvers.chain import build_inverse_chain
from repro.solvers.peng_spielman import (
    baseline_cg_solve,
    baseline_jacobi_cg_solve,
    solve_laplacian,
    solve_sdd,
)

CONFIG = SparsifierConfig.practical(bundle_t=2)


def _rhs(graph, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.num_vertices)
    return b - b.mean()


def _solver_comparison(graph):
    b = _rhs(graph)
    table = ExperimentTable(
        "E7a-solver-comparison", ["method", "iterations", "converged", "work_estimate", "chain_nnz"]
    )
    plain = baseline_cg_solve(graph, b, tol=1e-8)
    jacobi = baseline_jacobi_cg_solve(graph, b, tol=1e-8)
    chained = solve_laplacian(graph, b, tol=1e-8, config=CONFIG, seed=3)
    table.add_row(method="plain CG", iterations=plain.iterations, converged=plain.converged,
                  work_estimate=round(plain.work, 0), chain_nnz=0)
    table.add_row(method="Jacobi-PCG", iterations=jacobi.iterations, converged=jacobi.converged,
                  work_estimate=round(jacobi.work, 0), chain_nnz=0)
    table.add_row(method="chain-PCG (sparsified)", iterations=chained.result.iterations,
                  converged=chained.result.converged, work_estimate=round(chained.result.work, 0),
                  chain_nnz=chained.work_model.chain_total_nnz)
    return table, plain, jacobi, chained


def _chain_size_comparison(graph):
    table = ExperimentTable(
        "E7b-chain-size", ["variant", "depth", "max_level_nnz", "total_nnz"]
    )
    sparsified = build_inverse_chain(graph, config=CONFIG, sparsify=True, seed=1, max_levels=8)
    plain = build_inverse_chain(graph, config=CONFIG, sparsify=False, seed=1, max_levels=8)
    for name, chain in (("sparsified", sparsified), ("non-sparsified", plain)):
        table.add_row(
            variant=name,
            depth=chain.depth,
            max_level_nnz=max(level.nnz for level in chain.levels),
            total_nnz=chain.total_nnz,
        )
    return table, sparsified, plain


def test_e7_chain_solver_beats_plain_cg_on_grid(benchmark):
    grid = gen.grid_graph(22, 22)
    table, plain, jacobi, chained = benchmark.pedantic(
        _solver_comparison, args=(grid,), rounds=1, iterations=1
    )
    print_table(
        table,
        "Claim: the chain preconditioner cuts the iteration count far below plain CG\n"
        "on grid Laplacians (the ill-conditioned PDE-style inputs of Remark 1).",
    )
    assert chained.result.converged
    assert chained.result.iterations < plain.iterations
    assert chained.result.iterations < jacobi.iterations


def test_e7_sparsification_controls_chain_density(benchmark):
    grid = gen.grid_graph(18, 18)
    table, sparsified, plain = benchmark.pedantic(
        _chain_size_comparison, args=(grid,), rounds=1, iterations=1
    )
    print_table(
        table,
        "Claim: without sparsification the two-hop levels densify sharply;\n"
        "with PARALLELSPARSIFY every level stays near the input size.",
    )
    assert max(l.nnz for l in sparsified.levels) < max(l.nnz for l in plain.levels)
    # The densification the paper worries about really happens.
    assert max(l.nnz for l in plain.levels) > 4 * plain.levels[0].nnz


def test_e7_sdd_system_end_to_end(benchmark):
    rng = np.random.default_rng(0)
    n = 80
    off = rng.uniform(-1.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.1)
    off = 0.5 * (off + off.T)
    np.fill_diagonal(off, 0.0)
    mat = np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 1.0, n)) + off
    x_true = rng.standard_normal(n)
    b = mat @ x_true

    report = benchmark.pedantic(
        solve_sdd, args=(mat, b), kwargs={"tol": 1e-8, "config": CONFIG, "seed": 1},
        rounds=1, iterations=1,
    )
    assert report.result.converged
    assert np.allclose(report.x, x_true, atol=1e-4)


# --------------------------------------------------------------------- #
# Script mode (CI smoke): the same claims without pytest-benchmark.
# --------------------------------------------------------------------- #

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_RESULT_PATH = REPO_ROOT / "BENCH_solver_smoke.json"


def _blocked_delegation_check(graph, k: int = 8, tol: float = 1e-8) -> dict:
    """2-D rhs delegates to the blocked chain-PCG path; parity vs. 1-D solves."""
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((graph.num_vertices, k))
    rhs -= rhs.mean(axis=0, keepdims=True)
    report = solve_laplacian(graph, rhs, tol=tol, config=CONFIG, seed=5)
    assert report.batch is not None, "2-D rhs did not take the blocked path"
    assert report.result.converged
    assert report.batch.precond_applications > 0
    max_col_err = 0.0
    for j in range(k):
        single = solve_laplacian(graph, rhs[:, j], tol=tol, config=CONFIG,
                                 chain=report.chain)
        x_blocked = report.x[:, j] - report.x[:, j].mean()
        x_single = single.x - single.x.mean()
        scale = max(float(np.linalg.norm(x_single)), 1e-300)
        max_col_err = max(max_col_err, float(np.linalg.norm(x_blocked - x_single)) / scale)
    assert max_col_err < 1e-5, f"blocked delegation parity drifted: {max_col_err:.2e}"
    return {
        "section": "blocked-delegation",
        "n": graph.num_vertices,
        "columns": k,
        "iterations_max": int(report.batch.iterations.max(initial=0)),
        "precond_applications": int(report.batch.precond_applications),
        "max_col_rel_err": max_col_err,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small grid sizes for CI: assert the E7 claims + JSON emission, no timing claims",
    )
    parser.add_argument("--out", type=Path, default=None, help="override output JSON path")
    args = parser.parse_args()
    out_path = args.out or SMOKE_RESULT_PATH

    # The same workloads the pytest entry points use (small grids either way).
    solver_table, plain, jacobi, chained = _solver_comparison(gen.grid_graph(22, 22))
    print_table(solver_table)
    assert chained.result.converged
    assert chained.result.iterations < plain.iterations
    assert chained.result.iterations < jacobi.iterations

    size_table, sparsified, non_sparsified = _chain_size_comparison(gen.grid_graph(18, 18))
    print_table(size_table)
    assert max(l.nnz for l in sparsified.levels) < max(l.nnz for l in non_sparsified.levels)

    delegation_row = _blocked_delegation_check(gen.grid_graph(16, 16))

    rows = [
        {
            "section": "solver-comparison",
            "n": 22 * 22,
            "plain_iterations": plain.iterations,
            "jacobi_pcg_iterations": jacobi.iterations,
            "chain_iterations": chained.result.iterations,
            "chain_work": chained.result.work,
            "plain_work": plain.work,
        },
        {
            "section": "chain-size",
            "n": 18 * 18,
            "sparsified_max_level_nnz": max(l.nnz for l in sparsified.levels),
            "non_sparsified_max_level_nnz": max(l.nnz for l in non_sparsified.levels),
            "sparsified_total_nnz": sparsified.total_nnz,
            "non_sparsified_total_nnz": non_sparsified.total_nnz,
        },
        delegation_row,
    ]
    payload = {
        "experiment": "solver-chain-pcg",
        "smoke": args.smoke,
        "chain_converged": bool(chained.result.converged),
        "chain_beats_plain": bool(chained.result.iterations < plain.iterations),
        "blocked_delegation_checked": True,
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    parsed = json.loads(out_path.read_text())
    assert parsed["results"], f"no benchmark rows written to {out_path}"
    print(f"\nwrote {out_path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
