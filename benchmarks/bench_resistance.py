"""Certification-layer benchmark: blocked vs. looped Laplacian solves.

PRs 2 and 4 made *producing* sparsifiers fast at n = 2048–4096; this
benchmark measures whether *certifying* them keeps up.  Every resistance
path used to issue one CG solve per pair / per edge / per JL direction in
a Python loop; they now run down the shipped solve ladder
(:func:`repro.resistance.solver_select.solve_with_degradation`) with
deduplicated indicator right-hand sides.  "Blocked" in every row below
means that ladder with the default ``solver="cg"``: one sparse
factorization when the factor gate admits the Laplacian (reverse
Cuthill–McKee envelope <= nnz(L): the banded rows), one dense Cholesky
when it rejects one with n <= ``DENSE_FALLBACK_LIMIT`` (the power-law
n = 2048 row and the smoke ER rows), else blocked multi-RHS CG
(:func:`repro.linalg.cg.laplacian_solve_many`: the power-law n = 4096
row).  Timed head-to-head here:

* **pairs** — probe-pair resistances (the `approximation_report` /
  `certify_resistances` workload): blocked solve vs. the preserved
  per-pair loop (:mod:`repro.resistance._reference`).
* **all-edges** — the leverage-score path behind Spielman–Srivastava
  sampling: blocked (vertex-indicator columns: n solves instead of m) vs.
  the per-edge loop, extrapolated from a timed sample of edges (the full
  loop takes minutes — that is the point), plus the dense-pseudoinverse
  reference where it is still feasible.
* **jl-sketch** — approximate resistances: one blocked solve over the
  whole sign matrix vs. one solve per direction.
* **ss-end-to-end** — `spielman_srivastava_sparsify` with exact blocked
  resistances at n = 4096 (was unusable past ``_PINV_LIMIT``).
* **chain-pcg** — PR 6's closed loop: the same all-edges workload solved
  with plain blocked CG (``laplacian_solve_many`` called directly on the
  vertex-indicator columns, since ``solver="cg"`` factors this graph)
  vs. blocked CG preconditioned by a Peng–Spielman chain that
  ``PARALLELSPARSIFY`` itself builds (``solver="chain"``).  The
  machine-independent acceptance quantity is the *total CG iteration
  count*: at banded n >= 4096 the chain must cut it by >= 2x at identical
  tolerance (asserted unconditionally), with the two solution vectors
  agreeing to 1e-8.  ``--full`` adds the n = 8192 row.
* **ladder** — 64 random probe pairs on e2ebench's two graph families
  (banded with weights U(0.1, 10), m/(n log2 n) = 5.29; unit ER at 12.6),
  on a grid, on a sparse ER graph (average degree 8: the dense rung's
  loss case against CG) and on e2ebench's banded-certify main graph: the
  gate's envelope ratio, the rung the ladder took (``factor``, ``dense``
  or ``cg``), and seconds for the ladder, plain blocked CG and
  (n <= 2500) the dense pseudoinverse, with what ``method="auto"`` picks
  (the ladder, on every graph, since the dense rung replaced its pinv
  choice).

Every section records total/mean CG iteration counts and estimated matvec
work (via :class:`repro.resistance.ResistanceSolveStats`) alongside
seconds, so solver comparisons survive the 1-CPU CI container; a row the
factor answered records 0 iterations and its factorizations.  Every
blocked row is parity-checked against its looped counterpart within
solver tolerance.  Wall-clock *assertions* (>= 5x on the banded n = 2048
all-edges path) are gated on ``REPRO_BENCH_ASSERT_SPEEDUP=1`` — the CI
container has a single usable CPU and its timing noise should not fail
the build; the JSON always records the measured speedups, including the
honest chain-pcg wall-clock (plain CG still wins seconds at n = 4096:
each chain application costs ~25 graph-matvecs, so the 7x iteration cut
does not yet pay in arithmetic — the iteration counts, not seconds, are
the machine-independent claim).

Usage::

    PYTHONPATH=src python benchmarks/bench_resistance.py           # full matrix
    PYTHONPATH=src python benchmarks/bench_resistance.py --full    # + n = 8192 chain row
    PYTHONPATH=src python benchmarks/bench_resistance.py --smoke   # tiny, CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.analysis.reporting import ExperimentTable
from repro.baselines.spielman_srivastava import spielman_srivastava_sparsify
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.linalg.cg import laplacian_solve_many
from repro.resistance._reference import (
    looped_approximate_resistances,
    looped_resistances_of_pairs,
)
from repro.resistance.approx import approximate_effective_resistances_detailed
from repro.resistance.exact import (
    effective_resistances_all_edges,
    effective_resistances_of_pairs,
)
from repro.resistance.solver_select import (
    DENSE_FALLBACK_LIMIT,
    FactorGate,
    ResistanceSolveStats,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_resistance.json"
SMOKE_RESULT_PATH = REPO_ROOT / "BENCH_resistance_smoke.json"
SEED = 20140623  # SPAA'14


def build_graph(scenario: str, n: int):
    if scenario == "banded":
        return gen.banded_graph(n, 12)
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


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.abs(b), 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def _stats_fields(stats: ResistanceSolveStats, prefix: str = "blocked") -> dict:
    """Machine-independent solver-effort fields for one benchmark row."""
    return {
        f"{prefix}_solver": stats.solver,
        f"{prefix}_iterations_total": stats.iterations_total,
        f"{prefix}_iterations_mean": round(stats.iterations_mean, 2),
        f"{prefix}_matvecs": stats.matvecs,
        f"{prefix}_precond_applications": stats.precond_applications,
        f"{prefix}_work": stats.work,
        f"{prefix}_factorizations": stats.factorizations,
        f"{prefix}_dense_factorizations": stats.dense_factorizations,
        f"{prefix}_factor_fill": round(stats.factor_fill, 3),
    }


def _plain_cg(graph: Graph, rhs: sp.spmatrix, tol: float, stats: ResistanceSolveStats) -> np.ndarray:
    """Plain blocked CG on ``rhs``, whatever the factor gate would say.

    ``solver="cg"`` may answer by factorization, so the CG baselines call
    :func:`repro.linalg.cg.laplacian_solve_many` themselves.
    """
    solve = laplacian_solve_many(graph.laplacian(), rhs, tol=tol)
    stats.record(solve)
    return solve.x


def plain_cg_all_edges(graph: Graph, tol: float, stats: ResistanceSolveStats) -> np.ndarray:
    """Every edge's resistance from plain blocked CG on vertex-indicator columns."""
    n = graph.num_vertices
    x = _plain_cg(graph, sp.identity(n, format="csc"), tol, stats)
    u, v = graph.edge_u, graph.edge_v
    return x[u, u] + x[v, v] - x[u, v] - x[v, u]


def plain_cg_pairs(graph: Graph, pairs: np.ndarray, tol: float, stats: ResistanceSolveStats) -> np.ndarray:
    """Resistances of ``pairs`` from plain blocked CG on pair-indicator columns."""
    k = pairs.shape[0]
    columns = np.concatenate([np.arange(k), np.arange(k)])
    rhs = sp.csc_matrix(
        (np.concatenate([np.ones(k), -np.ones(k)]), (pairs.T.ravel(), columns)),
        shape=(graph.num_vertices, k),
    )
    x = _plain_cg(graph, rhs, tol, stats)
    return x[pairs[:, 0], np.arange(k)] - x[pairs[:, 1], np.arange(k)]


def run_pairs_case(scenario: str, n: int, num_pairs: int, tol: float = 1e-10) -> dict:
    """Probe-pair resistances, blocked vs. the per-pair reference loop."""
    graph = build_graph(scenario, n)
    rng = np.random.default_rng(SEED + n)
    # Duplicate ~1/4 of the pairs: the blocked path dedupes before solving.
    base = rng.integers(0, n, size=(max(num_pairs * 3 // 4, 1), 2))
    base = base[base[:, 0] != base[:, 1]]
    pairs = np.concatenate([base, base[: num_pairs - base.shape[0]]], axis=0)
    stats = ResistanceSolveStats()
    blocked, blocked_s = _timed(
        effective_resistances_of_pairs, graph, pairs, method="solve", tol=tol, stats=stats
    )
    looped, looped_s = _timed(looped_resistances_of_pairs, graph, pairs, tol=tol)
    err = _max_rel_err(blocked, looped)
    assert err < 1e-5, f"pairs parity drifted on {scenario} n={n}: {err:.2e}"
    return {
        "section": "pairs",
        "scenario": scenario,
        "n": n,
        "m": graph.num_edges,
        "columns": int(pairs.shape[0]),
        "blocked_seconds": round(blocked_s, 4),
        "looped_seconds": round(looped_s, 4),
        "looped_extrapolated": False,
        "speedup": round(looped_s / max(blocked_s, 1e-9), 2),
        "max_rel_err": err,
        **_stats_fields(stats),
    }


def run_all_edges_case(
    scenario: str,
    n: int,
    loop_sample: int,
    tol: float = 1e-10,
    include_pinv: bool = False,
) -> dict:
    """Leverage-score path: blocked all-edges vs. per-edge loop (sampled).

    The looped path is timed on ``loop_sample`` random edges and
    extrapolated to all m edges — running the real thing takes minutes at
    n = 2048, which is exactly the bottleneck this PR removes.  Parity is
    asserted on the sampled edges.
    """
    graph = build_graph(scenario, n)
    m = graph.num_edges
    stats = ResistanceSolveStats()
    blocked, blocked_s = _timed(
        effective_resistances_all_edges, graph, method="solve", tol=tol, stats=stats
    )
    rng = np.random.default_rng(SEED + n + 1)
    sample = rng.choice(m, size=min(loop_sample, m), replace=False)
    sample_pairs = np.stack([graph.edge_u[sample], graph.edge_v[sample]], axis=1)
    looped, sample_s = _timed(looped_resistances_of_pairs, graph, sample_pairs, tol=tol)
    looped_s = sample_s / sample.size * m
    err = _max_rel_err(blocked[sample], looped)
    assert err < 1e-5, f"all-edges parity drifted on {scenario} n={n}: {err:.2e}"
    row = {
        "section": "all-edges",
        "scenario": scenario,
        "n": n,
        "m": m,
        "columns": n,  # vertex-indicator path: n columns instead of m
        "blocked_seconds": round(blocked_s, 4),
        "looped_seconds": round(looped_s, 4),
        "looped_extrapolated": sample.size < m,
        "looped_sample_edges": int(sample.size),
        "speedup": round(looped_s / max(blocked_s, 1e-9), 2),
        "max_rel_err": err,
        **_stats_fields(stats),
    }
    if include_pinv:
        pinv_all, pinv_s = _timed(effective_resistances_all_edges, graph, method="pinv")
        row["pinv_seconds"] = round(pinv_s, 4)
        row["max_rel_err_vs_pinv"] = _max_rel_err(blocked, pinv_all)
        assert row["max_rel_err_vs_pinv"] < 1e-5
    return row


def run_jl_case(scenario: str, n: int, num_directions: int, tol: float = 1e-8) -> dict:
    """JL sketch: one blocked multi-RHS solve vs. one solve per direction.

    The two draw different random sign matrices (blocked draws the whole
    ``(k, m)`` matrix at once), so parity here is statistical: both are
    unbiased estimators of the same resistances and their medians must
    agree loosely.  Exact same-sign parity is pinned in the test suite.
    """
    graph = build_graph(scenario, n)
    stats = ResistanceSolveStats()
    with warnings.catch_warnings():
        # Small direction counts are deliberate here (timing, not accuracy).
        warnings.simplefilter("ignore", UserWarning)
        detailed, blocked_s = _timed(
            approximate_effective_resistances_detailed,
            graph,
            num_directions=num_directions,
            seed=SEED,
            solver_tol=tol,
            stats=stats,
        )
    blocked = detailed.resistances
    looped, looped_s = _timed(
        looped_approximate_resistances,
        graph,
        num_directions,
        seed=SEED,
        solver_tol=tol,
    )
    median_ratio = float(np.median(blocked / np.maximum(looped, 1e-300)))
    assert 0.5 < median_ratio < 2.0, (
        f"JL estimates diverged on {scenario} n={n}: median ratio {median_ratio}"
    )
    return {
        "section": "jl-sketch",
        "scenario": scenario,
        "n": n,
        "m": graph.num_edges,
        "columns": num_directions,
        "blocked_seconds": round(blocked_s, 4),
        "looped_seconds": round(looped_s, 4),
        "looped_extrapolated": False,
        "speedup": round(looped_s / max(blocked_s, 1e-9), 2),
        "median_ratio_blocked_vs_looped": round(median_ratio, 4),
        **_stats_fields(stats),
    }


def run_ss_case(scenario: str, n: int, loop_sample: int) -> dict:
    """Spielman–Srivastava end-to-end with exact blocked resistances.

    The looped comparison is the per-edge resistance loop extrapolated to
    all edges (the sampler itself is a negligible slice of the runtime).
    """
    graph = build_graph(scenario, n)
    m = graph.num_edges
    result, ss_s = _timed(
        spielman_srivastava_sparsify, graph, epsilon=0.5, seed=SEED
    )
    rng = np.random.default_rng(SEED + 7)
    sample = rng.choice(m, size=min(loop_sample, m), replace=False)
    sample_pairs = np.stack([graph.edge_u[sample], graph.edge_v[sample]], axis=1)
    _, sample_s = _timed(looped_resistances_of_pairs, graph, sample_pairs, tol=1e-8)
    looped_s = sample_s / sample.size * m
    return {
        "section": "ss-end-to-end",
        "scenario": scenario,
        "n": n,
        "m": m,
        "columns": n,
        "blocked_seconds": round(ss_s, 4),
        "looped_seconds": round(looped_s, 4),
        "looped_extrapolated": True,
        "looped_sample_edges": int(sample.size),
        "speedup": round(looped_s / max(ss_s, 1e-9), 2),
        "output_edges": result.output_edges,
    }


def run_chain_case(
    scenario: str,
    n: int,
    tol: float = 1e-10,
    assert_iteration_ratio: float | None = None,
) -> dict:
    """Chain-PCG vs. plain blocked CG on the all-edges workload.

    Both solvers run at identical tolerance on identical vertex-indicator
    columns; the comparison is total CG iterations (machine-independent)
    with wall-clock recorded alongside.  Parity between the two solution
    vectors is asserted at 1e-8 always; the >= ``assert_iteration_ratio``
    iteration reduction is asserted when given (the full bench passes 2.0
    for banded n >= 4096 — the PR's acceptance workload).
    """
    graph = build_graph(scenario, n)
    m = graph.num_edges
    cg_stats = ResistanceSolveStats()
    plain, cg_s = _timed(plain_cg_all_edges, graph, tol, cg_stats)
    chain_stats = ResistanceSolveStats()
    chained, chain_s = _timed(
        effective_resistances_all_edges, graph, method="solve", tol=tol,
        solver="chain", stats=chain_stats,
    )
    err = _max_rel_err(chained, plain)
    assert err <= 1e-8, f"chain-PCG parity drifted on {scenario} n={n}: {err:.2e}"
    assert chain_stats.precond_applications > 0, "chain path did not apply the preconditioner"
    assert chain_stats.chain_builds <= 1, (
        f"chain built {chain_stats.chain_builds} times for one graph — cache broken"
    )
    ratio = cg_stats.iterations_total / max(chain_stats.iterations_total, 1)
    if assert_iteration_ratio is not None:
        assert ratio >= assert_iteration_ratio, (
            f"chain-PCG cut iterations only {ratio:.2f}x on {scenario} n={n} "
            f"(expected >= {assert_iteration_ratio}x): "
            f"{cg_stats.iterations_total} -> {chain_stats.iterations_total}"
        )
    return {
        "section": "chain-pcg",
        "scenario": scenario,
        "n": n,
        "m": m,
        "columns": n,
        # Table mapping: "blocked" = chain-PCG, "looped" = plain blocked CG.
        "blocked_seconds": round(chain_s, 4),
        "looped_seconds": round(cg_s, 4),
        "speedup": round(cg_s / max(chain_s, 1e-9), 2),
        "max_rel_err": err,
        "iteration_ratio": round(ratio, 2),
        "iteration_ratio_asserted": assert_iteration_ratio,
        "chain_builds": chain_stats.chain_builds,
        **_stats_fields(cg_stats, prefix="cg"),
        **_stats_fields(chain_stats, prefix="chain"),
    }


# e2ebench's two graph families at their regime ratios m / (n log2 n).
BANDED_RATIO = 5.29
ER_RATIO = 12.6
# e2ebench's banded-certify main graph at seed 901, input set 0: the seed
# its ``derive_seed(901, 0, "main_graph")`` draws.
BANDED_CERTIFY_SEED = (901, 0, 1)


def build_ladder_graph(family: str, n: int, seed) -> Graph:
    """A ladder input: e2ebench's "banded" or "er" at its regime ratio,
    a square "grid" of ``n`` vertices, or "sparse-er" of average degree 8.

    (At n = 120 e2ebench's ER ratio asks for p > 1: the complete graph,
    whose envelope the sparse rung admits, so the smoke row uses sparse-er.)
    """
    if family == "banded":
        band = max(1, round(BANDED_RATIO * math.log2(n)))
        return gen.banded_graph(n, band, weight_range=(0.1, 10.0), seed=seed)
    if family == "grid":
        side = math.isqrt(n)
        return gen.grid_graph(side, side)
    if family == "sparse-er":
        # ~3n ER edges plus the n - 1 edges of the connecting backbone.
        return gen.erdos_renyi_graph(n, 6.0 / (n - 1), seed=seed, ensure_connected=True)
    p = 2.0 * ER_RATIO * math.log2(n) / (n - 1)
    return gen.erdos_renyi_graph(n, min(p, 1.0), seed=seed, ensure_connected=True)


def e2ebench_seed(parts) -> int:
    state = np.random.SeedSequence(list(parts)).generate_state(2, dtype=np.uint32)
    return int((int(state[0]) << 31) ^ int(state[1]))


def run_ladder_case(
    family: str, n: int, seed=SEED, label: str | None = None, num_pairs: int = 64,
    tol: float = 1e-10,
) -> dict:
    """Probe pairs down the shipped ladder vs. plain blocked CG vs. pinv.

    The ladder is ``effective_resistances_of_pairs(method="solve")``; the
    gate's envelope ratio and ``n`` say which rung it took.  Pinv runs at
    ``n <= DENSE_FALLBACK_LIMIT`` only.  ``auto_method`` is the path
    ``method="auto"`` takes on this graph: the ladder, with ``solver="cg"``.
    """
    graph = build_ladder_graph(family, n, seed)
    rng = np.random.default_rng(SEED + n)
    pairs = rng.integers(0, n, size=(num_pairs, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    gate, gate_s = _timed(FactorGate, graph.laplacian())
    stats = ResistanceSolveStats()
    ladder, ladder_s = _timed(
        effective_resistances_of_pairs, graph, pairs, method="solve", tol=tol, stats=stats
    )
    cg_stats = ResistanceSolveStats()
    plain, cg_s = _timed(plain_cg_pairs, graph, pairs, tol, cg_stats)
    err = _max_rel_err(ladder, plain)
    row = {
        "section": "ladder",
        "scenario": label or f"{family} n={n}",
        "n": n,
        "m": graph.num_edges,
        "columns": int(pairs.shape[0]),
        "envelope_ratio": round(gate.envelope_ratio, 3),
        "gate_seconds": round(gate_s, 4),
        "rung": (
            "dense" if stats.dense_factorizations
            else "factor" if stats.factorizations
            else "cg"
        ),
        "auto_method": "solve",
        "ladder_seconds": round(ladder_s, 4),
        "cg_seconds": round(cg_s, 4),
        "pinv_seconds": None,
        "max_rel_err": err,
        **_stats_fields(stats, prefix="ladder"),
        **_stats_fields(cg_stats, prefix="cg"),
    }
    if n <= DENSE_FALLBACK_LIMIT:
        by_pinv, pinv_s = _timed(effective_resistances_of_pairs, graph, pairs, method="pinv")
        row["pinv_seconds"] = round(pinv_s, 4)
        err = max(err, _max_rel_err(ladder, by_pinv), _max_rel_err(plain, by_pinv))
        row["max_rel_err"] = err
    assert err < 1e-8, f"ladder parity drifted on {row['scenario']}: {err:.2e}"
    return row


def check_determinism(scenario: str, n: int) -> bool:
    """Blocked JL sketches with one seed must be bit-identical."""
    graph = build_graph(scenario, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        first = approximate_effective_resistances_detailed(
            graph, num_directions=8, seed=SEED
        ).resistances
        second = approximate_effective_resistances_detailed(
            graph, num_directions=8, seed=SEED
        ).resistances
    return bool(np.array_equal(first, second))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: assert blocked/looped + chain/cg parity, no timing claims",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="add the n=8192 banded chain-PCG row (tens of minutes on one CPU)",
    )
    parser.add_argument("--out", type=Path, default=None, help="override output JSON path")
    args = parser.parse_args()
    if args.smoke and args.full:
        parser.error("--smoke and --full are mutually exclusive")

    rows = []
    if args.smoke:
        out_path = args.out or SMOKE_RESULT_PATH
        rows.append(run_pairs_case("er", 120, num_pairs=24))
        rows.append(run_all_edges_case("er", 120, loop_sample=10 ** 9))  # full loop
        rows.append(run_jl_case("er", 120, num_directions=8))
        # Exercise the chain-PCG path end to end (parity + preconditioner
        # accounting); no iteration-ratio claim at toy sizes.
        rows.append(run_chain_case("er", 120))
        rows.append(run_ladder_case("banded", 300, num_pairs=16))
        rows.append(run_ladder_case("sparse-er", 120, num_pairs=16))
        deterministic = check_determinism("er", 120)
    else:
        out_path = args.out or RESULT_PATH
        rows.append(run_pairs_case("banded", 2048, num_pairs=256))
        rows.append(
            run_all_edges_case("banded", 2048, loop_sample=64, include_pinv=True)
        )
        rows.append(run_all_edges_case("powerlaw", 2048, loop_sample=64))
        rows.append(run_jl_case("banded", 2048, num_directions=96))
        rows.append(run_ss_case("powerlaw", 4096, loop_sample=32))
        # Acceptance workload: chain-PCG must halve total CG iterations on
        # the ill-conditioned banded graph at identical tolerance.
        rows.append(run_chain_case("banded", 4096, assert_iteration_ratio=2.0))
        if args.full:
            rows.append(run_chain_case("banded", 8192, assert_iteration_ratio=2.0))
        rows.append(run_ladder_case("banded", 2400))
        rows.append(run_ladder_case("er", 2400))
        rows.append(run_ladder_case("er", 600))
        rows.append(run_ladder_case("grid", 2025, label="grid 45x45"))
        rows.append(run_ladder_case("sparse-er", 2000, label="sparse-er n=2000 (loss case)"))
        rows.append(run_ladder_case("banded", 1200))
        rows.append(
            run_ladder_case(
                "banded", 2600, seed=e2ebench_seed(BANDED_CERTIFY_SEED),
                label="e2ebench banded-certify main (seed 901, set 0)",
            )
        )
        deterministic = check_determinism("banded", 2048)

    table = ExperimentTable(
        "resistance-blocked-vs-looped",
        [
            "section", "scenario", "n", "m", "columns",
            "blocked_seconds", "looped_seconds", "speedup",
            "blocked_iterations_total", "cg_iterations_total", "chain_iterations_total",
        ],
    )
    ladder_table = ExperimentTable(
        "resistance-solve-ladder",
        [
            "scenario", "n", "m", "envelope_ratio", "rung", "auto_method",
            "ladder_seconds", "cg_seconds", "pinv_seconds", "max_rel_err",
        ],
    )
    for row in rows:
        target = ladder_table if row["section"] == "ladder" else table
        target.add_row(**{key: row.get(key, "") for key in target.columns})
    print(table.render())
    print()
    print(ladder_table.render())

    assert deterministic, "blocked JL sketch is not deterministic for a fixed seed"

    assert_speedup = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1"
    if assert_speedup and not args.smoke:
        for row in rows:
            # Acceptance workload: >= 5x on the banded n=2048 all-edges
            # (leverage-score) path.
            if row["section"] == "all-edges" and row["scenario"] == "banded":
                assert row["speedup"] >= 5.0, (
                    f"expected >=5x on banded n={row['n']} all-edges, "
                    f"got {row['speedup']}x"
                )
            # The chain-pcg rows carry no wall-clock assertion: the >= 2x
            # iteration reduction is asserted unconditionally in
            # run_chain_case, and the measured truth at n = 4096 is that
            # each chain application costs ~25 graph-matvecs, so plain CG
            # still wins seconds there (recorded honestly as speedup < 1).

    payload = {
        "experiment": "resistance-blocked-vs-looped",
        "seed": SEED,
        "smoke": args.smoke,
        "full": args.full,
        "speedup_asserted": assert_speedup and not args.smoke,
        "parity_checked": True,  # hard-asserted per row above
        "deterministic": deterministic,
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    parsed = json.loads(out_path.read_text())
    assert parsed["results"], f"no benchmark rows written to {out_path}"
    print(f"\nwrote {out_path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
