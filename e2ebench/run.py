#!/usr/bin/env python3
"""End-to-end benchmark of the sparsify, certify, stream-recover and CONGEST pipelines.

Run from the repository root (the package is imported from ``src/``)::

    python3 e2ebench/run.py --workload dense-er --seed 1 --seconds 45 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 45    # every workload
    python3 e2ebench/compare.py BASE_RESULTS NEW_RESULTS

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` adds a traced pass and reports the per-layer metrics, with
one trace file per run.  Results, traces and the durable stream stores go
under ``--out`` (default ``e2ebench/out``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, metrics and bounds are declared in
``BENCHMARK.json`` at the repository root.
"""

import os

# Pin the BLAS/OpenMP pools to one thread before NumPy is imported: the
# benchmark measures the serial code path, and a second BLAS thread only
# adds scheduling noise on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one timed iteration")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no package at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"e2ebench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    lines = []
    for name in names:
        try:
            result = bench.run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.out.resolve(), args.smoke
            )
        except workloads.GuardError as exc:
            print(f"e2ebench: input guard failed: {exc}", file=sys.stderr)
            return 3
        bench.print_report(result)
        lines.append(bench.contract_line(result))
        sys.stdout.flush()
    # One JSON object per workload, the driver-facing one last.
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
