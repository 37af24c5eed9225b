"""Command-line interface: sparsify / compare / span graphs stored as edge lists.

Installed as the ``repro-sparsify`` console script (see ``pyproject.toml``)
and also runnable as ``python -m repro.cli``.  The sparsification
subcommands are built on the unified engine (:mod:`repro.api`): every
registered method — the paper's algorithm, its distributed driver, and the
baselines — is reachable through ``--method``, and a whole request can be
loaded from JSON with ``--config`` (explicit flags override file values).

Subcommands
-----------
``sparsify``
    Run any registered method on a weighted edge-list file and write the
    sparsifier to another edge-list file, printing a summary (edge counts,
    rounds, and — with ``--certify`` — the measured spectral certificate;
    ``--certify-resistances N`` adds a probe-pair resistance certificate
    through the blocked multi-RHS solver, usable at sizes where the dense
    eigensolve behind ``--certify`` is not).
``batch``
    Run one method on many edge-list files at once, fanning the jobs out
    across the selected execution backend (``Engine.run_many``).
``compare``
    Run two or more registered methods on one input with identical
    parameters and print a side-by-side table (edges kept, reduction,
    certificate bounds, wall time) — the paper's method comparison as a
    one-liner.
``spanner``
    Compute a Baswana–Sen log n-spanner (or a t-bundle) of an edge-list
    file and write it out.
``stream``
    Ingest JSON-lines edge batches through a
    :class:`~repro.streaming.StreamingSparsifier` and write the final
    snapshot as an edge list.  Each input line is either a JSON object
    ``{"edges": [[u, v], ...], "weights": [...]}`` (weights optional) or
    a bare array of ``[u, v]`` / ``[u, v, w]`` edges; ``-`` reads from
    stdin.  ``--store`` journals every batch into a durable state store
    (``--resume`` recovers it before ingesting any new input), and
    ``--snapshot-every`` adds checksummed snapshots so recovery replays
    only the post-snapshot suffix.
``recover``
    Walk the recovery ladder of a ``--store`` directory after a crash —
    snapshot, journal suffix, valid-prefix salvage — print the
    :class:`~repro.streaming.RecoveryReport`, and exit 0 when the
    restored state is bit-exact (1 when recovered but lossy).
``lint``
    Run the AST invariant checker (:mod:`repro.lint`) — the machine
    enforcement of the repo's determinism / durability / degradation
    contracts — against ``src/`` (or explicit paths).  Any finding exits
    1; ``--list-rules`` prints the rule table.

``sparsify`` / ``batch`` accept ``--backend`` / ``--workers`` /
``--shards`` to choose where the work executes; backends never change the
output for a fixed seed, while the shard count is part of the algorithm.

The edge-list format is the one produced by
:func:`repro.graphs.io.write_edge_list`: a ``# n m`` header followed by
``u v w`` lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.analysis.reporting import comparison_table
from repro.api import (
    Engine,
    SparsifyRequest,
    available_method_names,
    compare_methods,
)
from repro.core.certificates import certify_resistances
from repro.exceptions import ReproError
from repro.graphs.io import read_edge_list, write_edge_list
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.parallel.backends import available_backends
from repro.parallel.failure import FailurePolicy
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.bundle import t_bundle_spanner

__all__ = ["main", "build_parser"]

_DEFAULT_SEED = 0


def _add_request_arguments(parser: argparse.ArgumentParser) -> None:
    """Request options shared by ``sparsify``, ``batch``, and ``compare``.

    Defaults are ``None`` sentinels meaning "not given on the command
    line": resolution order is explicit flag > ``--config`` file value >
    built-in default (see :func:`_request_from_args`).
    """
    parser.add_argument("--config", default=None, metavar="FILE.json",
                        help="load a SparsifyRequest from a JSON file; explicit flags override it")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="target epsilon (default 0.5)")
    parser.add_argument("--rho", type=float, default=None,
                        help="sparsification factor (default 4)")
    parser.add_argument("--bundle-t", type=int, default=None,
                        help="explicit bundle size (default: practical-mode ~log n)")
    parser.add_argument("--mode", choices=["practical", "theory"], default=None,
                        help="constant regime (default practical)")
    parser.add_argument("--tree-bundle", action="store_true",
                        help="use low-stretch-tree bundles (Remark 2) instead of spanners")
    parser.add_argument("--solver", choices=["cg", "chain"], default=None,
                        help="inner Laplacian solver for resistance/certification routes: "
                             "plain blocked CG (default) or chain-preconditioned blocked CG")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (default {_DEFAULT_SEED})")


def _add_method_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=list(available_method_names()), default=None,
                        help="registered sparsifier method, canonical name or alias "
                             "(default koutis)")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution-backend options shared by ``sparsify`` and ``batch``."""
    parser.add_argument("--backend", choices=list(available_backends()), default=None,
                        help="execution backend for shard/job fan-out (default: serial)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the backend (default: backend-specific)")
    parser.add_argument("--shards", type=int, default=None,
                        help="vertex-range shards for shard-parallel execution (default 1)")


def _request_from_args(args: argparse.Namespace) -> SparsifyRequest:
    """Merge ``--config`` JSON with explicit flags into a request.

    Explicit command-line flags win over the config file; anything still
    unset falls back to the request defaults (and seed 0, so CLI runs are
    reproducible by default like they always were).
    """
    data: Dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read request config {args.config!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ReproError(
                f"request config {args.config!r} must hold a JSON object, "
                f"got {type(data).__name__}"
            )
    method_flag = getattr(args, "method", None)
    if (
        method_flag is not None
        and data.get("method") not in (None, method_flag)
    ):
        # Options are method-specific: when the flag overrides the config
        # file's method, the file's options belong to the *old* method and
        # would reach the new one as unexpected keyword arguments.
        data.pop("options", None)
    flag_fields = {
        "method": method_flag,
        "epsilon": args.epsilon,
        "rho": args.rho,
        "backend": getattr(args, "backend", None),
        "max_workers": getattr(args, "workers", None),
        "num_shards": getattr(args, "shards", None),
        "seed": args.seed,
    }
    for key, value in flag_fields.items():
        if value is not None:
            data[key] = value
    if getattr(args, "certify", False):
        data["certify"] = True
    # Algorithm-config flags go into the nested SparsifierConfig payload.
    config_payload = dict(data.get("config") or {})
    if args.mode is not None:
        config_payload["mode"] = args.mode
    if args.bundle_t is not None:
        config_payload["bundle_t"] = args.bundle_t
    if args.tree_bundle:
        config_payload["use_tree_bundle"] = True
    if getattr(args, "solver", None) is not None:
        config_payload["solver"] = args.solver
    if config_payload:
        data["config"] = config_payload
    data.setdefault("seed", _DEFAULT_SEED)
    return SparsifyRequest.from_dict(data)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-sparsify",
        description="Spanner-based spectral graph sparsification (Koutis, SPAA 2014).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sparsify = subparsers.add_parser(
        "sparsify", help="run a registered sparsifier method on an edge list"
    )
    sparsify.add_argument("input", help="input edge-list file (# n m header, 'u v w' lines)")
    sparsify.add_argument("output", help="output edge-list file for the sparsifier")
    _add_method_argument(sparsify)
    _add_request_arguments(sparsify)
    _add_execution_arguments(sparsify)
    sparsify.add_argument("--certify", action="store_true",
                          help="also measure the spectral certificate (dense eigensolve; small graphs only)")
    sparsify.add_argument("--certify-resistances", type=int, default=None, metavar="PAIRS",
                          help="measure resistance preservation over PAIRS probe pairs via the "
                               "blocked multi-RHS solver (usable far past the --certify size limit)")

    batch = subparsers.add_parser(
        "batch", help="run one method on many edge lists across a backend"
    )
    batch.add_argument("inputs", nargs="+", help="input edge-list files (one job per file)")
    batch.add_argument("--output-dir", required=True,
                       help="directory for the sparsifier edge lists (<stem>.sparsified.txt)")
    _add_method_argument(batch)
    _add_request_arguments(batch)
    _add_execution_arguments(batch)
    batch.add_argument("--on-error", choices=["raise", "retry", "collect"], default="raise",
                       help="worker-failure handling: fail fast (default), retry crashed "
                            "jobs with seeded backoff, or finish the batch and report "
                            "failed jobs (their outputs are skipped)")
    batch.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="attempts per job when --on-error is retry/collect (default 3)")

    compare = subparsers.add_parser(
        "compare",
        help="run >= 2 registered methods on one input and print a side-by-side table",
    )
    compare.add_argument("input", help="input edge-list file")
    compare.add_argument("--methods", nargs="+", default=None,
                         metavar="METHOD", choices=list(available_method_names()),
                         help="methods to compare, canonical names or aliases "
                              "(default: koutis spielman-srivastava uniform "
                              "kapralov-panigrahi)")
    _add_request_arguments(compare)
    compare.add_argument("--certify", action="store_true",
                         help="measure a spectral certificate per method (dense eigensolve)")

    spanner = subparsers.add_parser("spanner", help="compute a spanner / t-bundle of an edge list")
    spanner.add_argument("input", help="input edge-list file")
    spanner.add_argument("output", help="output edge-list file for the spanner")
    spanner.add_argument("--t", type=int, default=1, help="bundle size (1 = a single spanner)")
    spanner.add_argument("--k", type=int, default=None,
                         help="Baswana-Sen parameter k (default ceil(log2 n))")
    spanner.add_argument("--seed", type=int, default=0, help="random seed")

    stream = subparsers.add_parser(
        "stream", help="ingest JSON-lines edge batches incrementally and snapshot"
    )
    stream.add_argument("input", nargs="?", default=None,
                        help="JSON-lines batch file ('-' = stdin; optional with --resume)")
    stream.add_argument("output", help="output edge-list file for the snapshot")
    stream.add_argument("--n", type=int, default=None,
                        help="number of vertices (required unless --resume)")
    stream.add_argument("--epsilon", type=float, default=None,
                        help="target epsilon for bundle sizing (default 0.5)")
    stream.add_argument("--bundle-t", type=int, default=None,
                        help="explicit bundle size (default: practical-mode ~log n)")
    stream.add_argument("--k", type=int, default=None,
                        help="Baswana-Sen parameter k (default ceil(log2 n))")
    stream.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="stream seed")
    stream.add_argument("--solver", choices=["cg", "chain"], default=None,
                        help="inner Laplacian solver for --certify-resistances")
    stream.add_argument("--window", type=int, default=None,
                        help="keep only edges from the last WINDOW ingest batches")
    stream.add_argument("--decay", type=float, default=None,
                        help="exponential per-batch weight decay in (0, 1]")
    stream.add_argument("--compaction-interval", type=int, default=None,
                        help="ingested edges per compaction block (default max(4096, 2n))")
    stream.add_argument("--kout-presample", type=int, default=None, metavar="K",
                        help="k-out presample ingest batches larger than K * n edges")
    stream.add_argument("--levels", type=int, default=None,
                        help="LSM-style retained levels (default 1 = classic single pool)")
    stream.add_argument("--store", default=None, metavar="DIR",
                        help="durable state store: journal every batch before processing "
                             "(plus checksummed snapshots with --snapshot-every); with "
                             "--resume, recovers via the snapshot/salvage ladder")
    stream.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                        help="with --store: snapshot state every N ingested batches and "
                             "truncate journal segments the snapshots cover")
    stream.add_argument("--resume", action="store_true",
                        help="recover the stream recorded in --store before reading input")
    stream.add_argument("--certify-resistances", type=int, default=None, metavar="PAIRS",
                        help="certify the snapshot against the exact live graph over "
                             "PAIRS probe pairs via the blocked multi-RHS solver")

    recover = subparsers.add_parser(
        "recover",
        help="walk the recovery ladder of a stream state store and report the outcome",
    )
    recover.add_argument("store", help="stream state store directory (journal/ + snapshots/)")
    recover.add_argument("--output", default=None, metavar="FILE",
                         help="also write the recovered snapshot as an edge list")

    lint = subparsers.add_parser(
        "lint",
        help="AST invariant checker: determinism, durability and degradation contracts",
    )
    add_lint_arguments(lint)
    return parser


def _print_rounds(native: Any) -> None:
    """Per-round breakdown for multi-round natives (no-op for baselines)."""
    rounds = getattr(native, "rounds", None)
    if not rounds:
        return
    for i, record in enumerate(rounds, start=1):
        index = getattr(record, "round_index", i)
        extra = ""
        if hasattr(record, "bundle_edges"):
            extra = f" (bundle {record.bundle_edges}, sampled {record.sampled_edges})"
        print(f"  round {index}: {record.input_edges} -> {record.output_edges}{extra}")


def _run_sparsify(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.input)
    request = _request_from_args(args)
    engine = Engine(request)
    result = engine.run(graph)
    write_edge_list(result.sparsifier, args.output)
    print(f"method: {result.method}")
    print(f"input : n={graph.num_vertices} m={graph.num_edges}")
    print(f"output: m={result.output_edges} "
          f"({result.reduction_factor:.2f}x reduction, {result.num_rounds} rounds)")
    _print_rounds(result.native)
    if result.certificate is not None:
        cert = result.certificate
        print(f"certificate: {cert.lower:.4f} * G <= H <= {cert.upper:.4f} * G "
              f"(eps_achieved={cert.epsilon_achieved:.4f})")
    if args.certify_resistances is not None:
        if args.certify_resistances <= 0:
            raise ReproError(
                f"--certify-resistances needs a positive pair count, "
                f"got {args.certify_resistances}"
            )
        rc = certify_resistances(
            graph, result.sparsifier,
            num_pairs=args.certify_resistances, seed=request.seed,
            solver=request.resolved_config().solver,
        )
        print(f"resistance certificate: R_H/R_G in [{rc.ratio_min:.4f}, {rc.ratio_max:.4f}] "
              f"over {rc.num_pairs_used} probe pairs "
              f"(refutes any epsilon < {rc.epsilon_refuted_below:.4f})")
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    graphs = [read_edge_list(path) for path in args.inputs]
    request = _request_from_args(args)
    engine = Engine(request)
    failure_policy = None
    if args.on_error != "raise":
        failure_policy = FailurePolicy(
            on_error=args.on_error, max_attempts=max(args.max_attempts, 1)
        )
    batch = engine.run_many(graphs, failure_policy=failure_policy)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    # Inputs from different directories may share a stem (and a stem may
    # itself look like a numbered duplicate); pick names against the set
    # already assigned so no job silently overwrites another's output.
    used_names: set = set()
    out_names = []
    for path in args.inputs:
        stem = Path(path).stem
        candidate = f"{stem}.sparsified.txt"
        bump = 1
        while candidate in used_names:
            candidate = f"{stem}-{bump}.sparsified.txt"
            bump += 1
        used_names.add(candidate)
        out_names.append(candidate)
    for path, out_name, job in zip(args.inputs, out_names, batch.results):
        if job is None:
            continue  # failed job: reported below, no output written
        out_path = output_dir / out_name
        write_edge_list(job.sparsifier, out_path)
        print(f"{path}: m={job.input_edges} -> {job.output_edges} "
              f"({job.reduction_factor:.2f}x, {job.num_rounds} rounds) -> {out_path}")
    for record in batch.failures:
        print(f"{args.inputs[record.index]}: FAILED after {record.attempts} attempts "
              f"({record.error_type}: {record.message})", file=sys.stderr)
    print(f"batch : {batch.num_jobs} jobs method={batch.method} "
          f"backend={batch.backend_name} workers={batch.max_workers}"
          + (f" failed={batch.num_failed}" if batch.failures else ""))
    print(f"total : m={batch.total_input_edges} -> {batch.total_output_edges} "
          f"({batch.reduction_factor:.2f}x reduction)")
    return 1 if batch.failures else 0


def _run_compare(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.input)
    methods = args.methods or ["koutis", "spielman-srivastava", "uniform", "kapralov-panigrahi"]
    if len(methods) < 2:
        raise ReproError(
            f"compare needs at least two methods, got {len(methods)}: {', '.join(methods)}"
        )
    request = _request_from_args(args)
    if request.options:
        raise ReproError(
            "compare runs multiple methods, so method-specific \"options\" from "
            f"--config are ambiguous (got {sorted(request.options)}); remove them "
            "or use the sparsify subcommand per method"
        )
    results = compare_methods(
        graph,
        methods,
        epsilon=request.epsilon,
        rho=request.rho,
        # Resolved: backend / workers / shards from the request apply to
        # every method (the shard count is part of the algorithm, so
        # compare must see the same sparsifier the sparsify subcommand
        # writes for the same --config).
        config=request.resolved_config(),
        seed=request.seed,
        certify=request.certify,
    )
    print(f"input : n={graph.num_vertices} m={graph.num_edges}")
    print(comparison_table(results))
    return 0


def _run_spanner(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.input)
    if args.t <= 1:
        result = baswana_sen_spanner(graph, k=args.k, seed=args.seed)
        spanner = result.spanner
        print(f"spanner: {spanner.num_edges} of {graph.num_edges} edges "
              f"(stretch target {result.stretch_target:.0f})")
    else:
        bundle = t_bundle_spanner(graph, t=args.t, k=args.k, seed=args.seed)
        spanner = bundle.bundle
        print(f"{bundle.t}-bundle: {bundle.num_edges} of {graph.num_edges} edges"
              f"{' (exhausted the graph)' if bundle.exhausted else ''}")
    write_edge_list(spanner, args.output)
    return 0


def _parse_stream_batch(line: str, line_number: int):
    """One JSON-lines batch -> (edges, weights) for ``ingest``."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"stream input line {line_number} is not JSON: {exc}") from exc
    if isinstance(payload, dict):
        if "edges" not in payload:
            raise ReproError(
                f"stream input line {line_number}: batch object needs an \"edges\" key"
            )
        return payload["edges"], payload.get("weights")
    if isinstance(payload, list):
        return payload, None
    raise ReproError(
        f"stream input line {line_number}: expected a batch object or edge array, "
        f"got {type(payload).__name__}"
    )


def _run_stream(args: argparse.Namespace) -> int:
    from repro.core.config import SparsifierConfig
    from repro.streaming import StreamingSparsifier

    config = SparsifierConfig(solver=args.solver) if args.solver else None
    if args.snapshot_every is not None and not args.store:
        raise ReproError("--snapshot-every requires --store")
    if args.resume:
        if not args.store:
            raise ReproError("--resume needs --store pointing at the stream's state")
        stream, report = StreamingSparsifier.recover(
            args.store, config=config, snapshot_every=args.snapshot_every
        )
        print(report.summary())
        print(f"resumed: {stream.batches_ingested} batches, "
              f"{stream.edges_ingested} edges, {stream.compactions} compactions")
    else:
        if args.n is None:
            raise ReproError("stream needs --n (number of vertices) unless --resume")
        stream = StreamingSparsifier(
            args.n,
            epsilon=args.epsilon,
            t=args.bundle_t,
            k=args.k,
            config=config,
            seed=args.seed,
            window=args.window,
            decay=args.decay,
            compaction_interval=args.compaction_interval,
            kout_presample=args.kout_presample,
            levels=args.levels,
            store=args.store,
            snapshot_every=args.snapshot_every,
        )
    if args.input is not None:
        handle = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
        try:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                edges, weights = _parse_stream_batch(line, line_number)
                record = stream.ingest(edges, weights)
                print(f"  batch {record.batch_index}: +{record.edges} edges"
                      + (f" (presampled to {record.edges_after_presample})"
                         if record.edges_after_presample != record.edges else "")
                      + (f", {record.compactions_run} compaction(s)"
                         if record.compactions_run else "")
                      + (f", {record.evicted_edges} evicted"
                         if record.evicted_edges else ""))
        finally:
            if handle is not sys.stdin:
                handle.close()
    elif not args.resume:
        raise ReproError("stream needs an input file (or '-') unless --resume")
    snapshot = stream.snapshot()
    write_edge_list(snapshot.graph, args.output)
    stats = snapshot.stats
    print(f"stream: {stats.batches_ingested} batches, {stats.edges_ingested} edges "
          f"ingested, {stats.compactions} compactions")
    print(f"output: m={snapshot.num_edges} of {stats.live_input_edges} live edges "
          f"-> {args.output}")
    if args.certify_resistances is not None:
        if args.certify_resistances <= 0:
            raise ReproError(
                f"--certify-resistances needs a positive pair count, "
                f"got {args.certify_resistances}"
            )
        certificate = stream.certify(
            num_pairs=args.certify_resistances,
            seed=args.seed,
            solver=args.solver,
            snapshot=snapshot,
        )
        rc = certificate.resistances
        print(f"resistance certificate: R_H/R_G in [{rc.ratio_min:.4f}, {rc.ratio_max:.4f}] "
              f"over {rc.num_pairs_used} probe pairs (solver={certificate.solver})")
        spectral = certificate.report.certificate
        print(f"spectral certificate: {spectral.lower:.4f} * G <= H <= "
              f"{spectral.upper:.4f} * G")
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    from repro.streaming import StreamingSparsifier

    stream, report = StreamingSparsifier.recover(args.store)
    print(report.summary())
    if args.output:
        snapshot = stream.snapshot()
        write_edge_list(snapshot.graph, args.output)
        print(f"snapshot: m={snapshot.num_edges} -> {args.output}")
    # Exit status mirrors the headline: 0 bit-exact, 1 recovered-but-lossy.
    return 0 if report.bit_exact else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sparsify":
        return _run_sparsify(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "spanner":
        return _run_spanner(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "lint":
        return run_lint_command(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
