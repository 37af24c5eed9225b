#!/usr/bin/env python3
"""Compare two result sets of the e2ebench benchmark.

Usage, from the repository root::

    python3 e2ebench/compare.py BASE NEW

``BASE`` and ``NEW`` are result directories (``--out``/results of
``run.py``) or single result files.  For every (workload, metric) pair it
prints each side's median and quartiles over its runs and the relative
gap of the medians.  End-to-end metrics are judged against the bound
declared in ``BENCHMARK.json``: ``REGRESSION`` when the new median is
worse by more than the bound, ``improved`` when it is better by more than
the bound, ``unresolved`` when either side's own spread (quartile distance
over median) exceeds the bound and no verdict follows, ``ok`` otherwise.
Per-layer metrics have no bound and get no verdict.  For seeds present on
both sides it also says whether every op's output digests match, which is
how a change that claims no behaviour change shows bit-identical outputs.
Keep each result set in its own ``--out`` directory.  Exits 1 when any
regression is found.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Key = Tuple[str, str]


def load(path: Path) -> Tuple[Dict[Key, List[float]], Dict[Key, Dict[str, list]]]:
    """Metric values per (workload, metric), and op digests per (workload, seed)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: Dict[Key, List[float]] = defaultdict(list)
    digests: Dict[Key, Dict[str, list]] = {}
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        for metric, row in result.get("metrics", {}).items():
            values[(result["workload"], metric)].append(float(row["value"]))
        ops = digests.setdefault((result["workload"], str(result["seed"])), {})
        for op, row in result.get("ops", {}).items():
            ops.setdefault(op, row["digests"])
    return values, digests


def same_outputs(base: Dict[Key, Dict[str, list]], new: Dict[Key, Dict[str, list]]) -> None:
    """Per workload: whether every op's outputs are bit-identical at the shared seeds."""
    shared = sorted(set(base) & set(new))
    for workload in sorted({w for w, _ in shared}):
        seeds = [seed for w, seed in shared if w == workload]
        differ = [
            seed for seed in seeds
            if any(
                a and b and a != b
                for op in set(base[(workload, seed)]) & set(new[(workload, seed)])
                for a, b in zip(base[(workload, seed)][op], new[(workload, seed)][op])
            )
        ]
        verdict = "bit-identical" if not differ else f"differ at seeds {', '.join(differ)}"
        print(f"{workload:<15} outputs at {len(seeds)} shared seeds: {verdict}")


def stats(values: List[float]) -> Tuple[float, float, float]:
    """(median, q1, q3)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    return values[0], values[0], values[0]


def spread(values: List[float]) -> float:
    median, q1, q3 = stats(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: List[float], new: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worse = sign * (n - b) / abs(b) if b else 0.0
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    # Within the bound but noisier than it: not evidence of "unchanged",
    # unless every new run reads better than every base run.
    every_run_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound and not every_run_better:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    (base, base_digests), (new, new_digests) = load(args.base), load(args.new)
    regressions = 0
    print(f"{'workload':<15} {'metric':<44} {'base median [q1, q3] n':<38} "
          f"{'new median [q1, q3] n':<38} {'gap':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        cells = []
        for values in (base[key], new[key]):
            median, q1, q3 = stats(values)
            cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}")
        b = statistics.median(base[key])
        gap = (statistics.median(new[key]) - b) / abs(b) if b else 0.0
        label = "-"
        if metric in bounds:
            bound, lower = bounds[metric]
            label = verdict(base[key], new[key], bound, lower)
            regressions += label == "REGRESSION"
            label += f" (bound {bound:.0%})"
        print(f"{workload:<15} {metric:<44} {cells[0]:<38} {cells[1]:<38} {gap:>+8.1%}  {label}")
    only = sorted(set(base) ^ set(new))
    for workload, metric in only:
        side = "base" if (workload, metric) in base else "new"
        print(f"{workload:<15} {metric:<44} only in {side}")
    same_outputs(base_digests, new_digests)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
