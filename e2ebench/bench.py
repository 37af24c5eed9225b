"""One benchmark run of one workload: set up, warm up, measure, check, report.

Closed loop, one client: each op starts when the previous one returns.
An iteration runs the five ops on one input set in the order of
:data:`SCHEDULE` (batch sparsify -> certify its output; durable stream
ingest -> crash-recover; distributed sparsify).  The first iteration is an
untimed warm-up on input set 0 that measures each op's peak allocation
under tracemalloc.  Timed iterations then cycle through the input sets,
every set at least once, until ``--seconds`` is used up.  The first
output of each op on each set gets the full output checks and fixes its
digest; every later output on that set must repeat the digest (same seed,
same output).  End-to-end times are medians over a run's calls of
host-speed-adjusted seconds (see :class:`Gauge`).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

import ops
import tracing
import workloads
from repro.parallel.backends import get_backend

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# Per op, traced layer seconds should sum to within this share of the
# untraced median, and at most this share of traced time may fall outside
# the named layer spans.
TRACE_TOLERANCE = 0.1

# End-to-end metric -> unit.  Two more end-to-end figures are reported
# but carry no bound: ``eps_refuted`` (a maximum over 64 probe pairs,
# which spreads 17-44% across seeds) and ``failed_frac`` (0 at a healthy
# commit, so no relative bound applies); both are in every result file.
END_TO_END = {
    "setup_s": "s",
    "sparsify_s": "s",
    "reduction_x": "x",
    "certify_s": "s",
    "distributed_s": "s",
    "congest_rounds": "count",
    "congest_messages": "count",
    "ingest_us_per_edge": "us",
    "recover_s": "s",
    "stream_reduction_x": "x",
    "peak_mb": "MB",
}

_FS_MAGIC = {
    0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x794C7630: "overlayfs",
    0x01021994: "tmpfs", 0x858458F6: "ramfs", 0x6969: "nfs", 0x65735546: "fuse",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_work", "ops"), ("_bytes", "bytes"),
        ("_frac", "1"), ("_x", "x"), ("_pct", "pct"), ("pram_depth", "steps"),
        ("eps_refuted", "1"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def filesystem_type(path: Path) -> str:
    """Filesystem of ``path`` from statfs(2)'s f_type (the first field)."""
    statfs = ctypes.CDLL(None).statfs
    statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(512)
    if statfs(str(path).encode(), buf) != 0:
        return "unknown"
    magic = int.from_bytes(buf.raw[:8], sys.byteorder) & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, f"0x{magic:x}")


def environment(store_root: Path) -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "backend": get_backend(None).name,
        "store_fs": filesystem_type(store_root),
    }


# On a shared host the speed of this benchmark's single thread swings by
# up to 1.7x for seconds to minutes at a time, and every kernel slows
# about alike (a pure-Python loop as much as a block-CG solve), so wall
# times of runs minutes apart differ by more than any bound that would
# still catch a regression.  A fixed pure-Python loop, timed after every
# timed call, gauges the host's speed.  A call's reported seconds are its
# wall seconds times GAUGE_S over the mean of the gauge readings just
# before and just after it: the seconds it would take on a host where the
# loop takes GAUGE_S, about what it takes on a quiet 2.1 GHz Xeon vCPU
# under CPython 3.11.  The gauge runs no code of the package, so a change
# under ``src/`` moves reported seconds as it moves wall seconds.  Wall
# seconds stay in every result file.  Over two sets of ten 45-s runs per
# workload, on a host that ran 1.1-1.8x slower than quiet, the gauge cut
# the spread of the per-run medians (quartile distance over median) from
# 0.07-0.45 in wall seconds to 0.02-0.09, and the two sets' medians of
# each metric agreed within 6%.
GAUGE_LOOPS = 150_000
GAUGE_S = 0.010


class Gauge:
    """Host speed, read from a fixed pure-Python loop."""

    def __init__(self) -> None:
        self.last = self.read()

    @staticmethod
    def read() -> float:
        start = time.perf_counter()
        x = 0
        for i in range(GAUGE_LOOPS):
            x += i * i % 7
        return time.perf_counter() - start

    def around(self) -> Tuple[float, float]:
        """The readings before and after the call that just returned."""
        before, self.last = self.last, self.read()
        return before, self.last

    def restart(self) -> None:
        """A fresh reading, after untimed work that took a while."""
        self.last = self.read()


def speed(readings: Tuple[float, float]) -> float:
    """Factor from wall seconds to seconds where the gauge reads GAUGE_S."""
    return GAUGE_S / (sum(readings) / 2)


def adjusted(raw: float, readings: Tuple[float, float]) -> float:
    return raw * speed(readings)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# The order of one iteration's calls.  Certify and recover only read their
# inputs, so they repeat (the workload's ``certify_reps`` and
# ``recover_reps``), their repeats split over the places they hold here,
# a heavy op apart: a burst of load from the rest of a shared machine then
# slows one share of an iteration's samples rather than all of them.
SCHEDULE = ("batch", "certify", "ingest", "recover", "certify", "distributed", "recover", "certify")
NEEDS = {"certify": "batch", "recover": "ingest"}


class Runner:
    """Runs iterations of one workload's ops and keeps their samples."""

    def __init__(self, inputs: workloads.Inputs, gauge: Gauge, smoke: bool = False) -> None:
        self.inputs = inputs
        self.gauge = gauge
        # op -> (input set, wall seconds, gauge readings around the call)
        self.samples: Dict[str, List[Tuple[int, float, Any]]] = defaultdict(list)
        self.traced_speeds: Dict[str, List[float]] = defaultdict(list)  # per traced call
        self.digests: Dict[Tuple[str, int], str] = {}
        self.peaks: Dict[str, float] = {}
        self.counts: Dict[str, Dict[int, float]] = defaultdict(dict)  # metric -> set -> value
        self.reps = {op: 1 for op in ops.OPS}
        if not smoke:
            self.reps.update(certify=inputs.workload.certify_reps,
                             recover=inputs.workload.recover_reps)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.iterations = 0

    def _call(
        self, op: str, index: int, fn: Callable[[], ops.Outcome], peak: bool
    ) -> Optional[ops.Outcome]:
        self.attempted += 1
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        try:
            outcome = fn()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        if peak:
            self.peaks[op] = float(tracemalloc.get_traced_memory()[1] - base)
        problems = list(outcome.problems)
        key = (op, index)
        if key not in self.digests:
            self.digests[key] = outcome.digest
            problems += self._full_checks(op, index, outcome)
        elif outcome.digest != self.digests[key]:
            problems.append("output digest differs from an earlier call on the same inputs")
        if problems:
            self._fail(op, "; ".join(problems))
        return outcome

    def _fail(self, op: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{op} (iteration {self.iterations}): {why}")

    def _full_checks(self, op: str, index: int, outcome: ops.Outcome) -> List[str]:
        """Checks and exact counts, on the first output of each (op, input set)."""
        if op in ("batch", "distributed"):
            graph, result = outcome.output
            if op == "batch":
                self.counts["reduction_x"][index] = result.reduction_factor
            else:
                self.counts["congest_rounds"][index] = float(result.native.cost.rounds)
                self.counts["congest_messages"][index] = float(result.native.cost.messages)
            return ops.check_sparsifier(graph, result.sparsifier)
        if op == "certify":
            self.counts["eps_refuted"][index] = outcome.output[0].epsilon_refuted_below
        if op == "ingest":
            run = outcome.output
            self.counts["stream_reduction_x"][index] = run.live_input_edges / run.snapshot.num_edges
            return ops.check_sparsifier(self.inputs.sets[index].side, run.snapshot)
        return []

    def _share(self, op: str, position: int) -> int:
        """Calls of ``op`` at ``position`` of :data:`SCHEDULE`: its reps, split evenly."""
        places = [i for i, name in enumerate(SCHEDULE) if name == op]
        k = places.index(position)
        return self.reps[op] // len(places) + int(k < self.reps[op] % len(places))

    def iteration(
        self, index: int, tracer: Any = None, warmup: bool = False
    ) -> Dict[str, List[Tuple[float, Any]]]:
        """Every op on input set ``index``, each read-only op ``reps`` times.

        Returns each op's (wall seconds, gauge readings) per call; the
        warm-up reads no gauge.
        """
        gauged = not warmup
        if gauged:
            self.gauge.restart()
        inputs = self.inputs.sets[index]
        self.iterations += 1
        store = self.inputs.store_root / f"stream-{self.iterations}"
        last: Dict[str, Optional[ops.Outcome]] = {}
        calls: Dict[str, Callable[[], ops.Outcome]] = {
            "batch": lambda: ops.run_sparsify(
                "batch", inputs.main, "koutis", inputs.seeds["sparsify"], tracer),
            "certify": lambda: ops.run_certify(inputs, last["batch"].output[1].sparsifier, tracer),
            "ingest": lambda: ops.run_ingest(inputs, store, tracer),
            "recover": lambda: ops.run_recover(store, last["ingest"].digest, tracer),
            "distributed": lambda: ops.run_sparsify(
                "distributed", inputs.side, "koutis-distributed", inputs.seeds["distributed"], tracer),
        }
        timed: Dict[str, List[Tuple[float, Any]]] = defaultdict(list)
        if warmup:
            tracemalloc.start()
        try:
            for position, op in enumerate(SCHEDULE):
                if op in NEEDS and last.get(NEEDS[op]) is None:
                    continue
                # The warm-up calls each op once, at its first place.
                first = position == SCHEDULE.index(op)
                for _ in range(int(first) if warmup else self._share(op, position)):
                    outcome = self._call(op, index, calls[op], peak=warmup)
                    readings = self.gauge.around() if gauged else None
                    if outcome is None:
                        break
                    last[op] = outcome
                    timed[op].append((outcome.seconds, readings))
        finally:
            shutil.rmtree(store, ignore_errors=True)
            if warmup:
                tracemalloc.stop()
        return timed

    def warm_up(self) -> None:
        """Untimed first iteration: peaks, full checks."""
        self.iteration(0, warmup=True)

    def measure(self, budget: float, min_iterations: int, tracer: Any = None) -> None:
        """Cycle through the input sets while the next iteration fits ``budget``.

        Untraced calls are kept as samples.  With a tracer, every input set
        runs untraced and then traced, back to back, so both passes see the
        same machine state and their difference is the tracing overhead.
        """
        start = time.perf_counter()
        durations: List[float] = []
        while True:
            index = len(durations) % len(self.inputs.sets)
            began = time.perf_counter()
            for op, calls in self.iteration(index).items():
                self.samples[op].extend((index, raw, readings) for raw, readings in calls)
            if tracer is not None:
                with tracing.installed(tracer):
                    traced = self.iteration(index, tracer)
                for op, calls in traced.items():
                    self.traced_speeds[op].extend(speed(readings) for _, readings in calls)
            durations.append(time.perf_counter() - began)
            if len(durations) >= min_iterations and (
                time.perf_counter() - start + statistics.median(durations) > budget
            ):
                return

    def wall(self, op: str) -> List[float]:
        return [raw for _, raw, _ in self.samples[op]]

    def seconds(self, op: str) -> List[float]:
        """Gauge-adjusted seconds of each untraced call."""
        return [adjusted(raw, readings) for _, raw, readings in self.samples[op]]

    def end_to_end(self, setup: List[float]) -> Dict[str, Dict[str, Any]]:
        sets = self.inputs.sets
        samples = {
            "setup_s": setup,
            "sparsify_s": self.seconds("batch"),
            "certify_s": self.seconds("certify"),
            "distributed_s": self.seconds("distributed"),
            "ingest_us_per_edge": [
                adjusted(raw, readings) / sets[index].side.num_edges * 1e6
                for index, raw, readings in self.samples["ingest"]
            ],
            "recover_s": self.seconds("recover"),
        }
        metrics: Dict[str, Dict[str, Any]] = {}
        for name, unit in END_TO_END.items():
            if name == "peak_mb":
                row: Dict[str, Any] = {"value": max(self.peaks.values()) / 1e6 if self.peaks else None}
            elif name in samples:
                row = summarize(samples[name]) if samples[name] else {"value": None}
            else:  # exact for the seed: median over the input sets
                per_set = list(self.counts[name].values())
                row = summarize(per_set) if per_set else {"value": None}
            metrics[name] = {**row, "unit": unit}
        return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out_dir: Path, smoke: bool
) -> Dict[str, Any]:
    """One run; returns the contract's result object and writes the result file."""
    workload = workloads.WORKLOADS[name]
    work = out_dir / "work" / f"{name}-{seed}-{os.getpid()}"
    setup: List[Tuple[float, Any]] = []
    gauge = Gauge()
    try:
        for _ in range(1 if smoke else SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workloads.build_inputs(workload, seed, work, smoke)
            setup.append((time.perf_counter() - start, gauge.around()))
        env = environment(work)
        runner = Runner(inputs, gauge, smoke)
        began = time.perf_counter()
        runner.warm_up()
        warmup_s = time.perf_counter() - began
        trace_file = None
        integrity: Dict[str, Dict[str, Any]] = {}
        if not trace:
            # Every input set at least once, so the per-set counts are exact.
            runner.measure(seconds, min_iterations=len(inputs.sets))
            metrics = runner.end_to_end([adjusted(raw, readings) for raw, readings in setup])
        else:
            tracer = tracing.Tracer()
            runner.measure(seconds, min_iterations=1 if smoke else 2, tracer=tracer)
            untraced = {op: statistics.median(runner.seconds(op)) for op in ops.OPS}
            layers = tracing.layer_metrics(tracer.spans, untraced, runner.traced_speeds)
            metrics = {
                metric: {"value": value, "unit": layer_unit(metric)}
                for metric, value in sorted(layers.items())
            }
            for op in ops.OPS:
                layer_sum = metrics[f"{op}.trace.layer_sum_x"]["value"]
                outside = metrics[f"{op}.trace.outside_frac"]["value"]
                integrity[op] = {
                    "layer_sum_x": layer_sum, "outside_frac": outside,
                    "ok": abs(layer_sum - 1.0) <= TRACE_TOLERANCE and outside <= TRACE_TOLERANCE,
                }
            trace_dir = out_dir / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = trace_dir / f"trace-{name}-seed{seed}-{os.getpid()}.json"
            trace_file.write_text(
                json.dumps({"workload": name, "seed": seed, "spans": tracer.spans}),
                encoding="utf-8",
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if env["backend"] != "serial":
        runner.problems.append(f"default backend is {env['backend']}, expected serial")
    missing = [metric for metric, row in metrics.items() if row["value"] is None]
    for metric in missing:
        metrics[metric]["value"] = 0.0
    correct = runner.failed == 0 and not missing and not runner.problems
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "why": workload.why,
        "inputs": inputs.describe(),
        "environment": env,
        "iterations": runner.iterations,
        "warmup_s": warmup_s,
        "gauge_s": GAUGE_S,
        "setup_calls": setup,
        "ops": {
            op: {**summarize(runner.seconds(op)), "unit": "s",
                 "wall": summarize(runner.wall(op)),
                 "peak_mb": runner.peaks.get(op, 0.0) / 1e6, "reps": runner.reps[op],
                 "calls": runner.samples[op],
                 "digests": [runner.digests.get((op, i)) for i in range(len(inputs.sets))]}
            for op in ops.OPS if runner.samples[op]
        },
        "reported": {
            "eps_refuted": statistics.median(runner.counts["eps_refuted"].values())
            if runner.counts["eps_refuted"] else None,
            "failed_frac": runner.failed / max(runner.attempted, 1),
        },
        "problems": runner.problems + [f"no value for {metric}" for metric in missing],
        "trace_file": str(trace_file) if trace_file else None,
        "trace_integrity": integrity,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    result["result_file"] = str(path)
    return result


def print_report(result: Dict[str, Any]) -> None:
    """Human-readable table; the contract's JSON line is printed by the caller."""
    env = result["environment"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={result['iterations']}: {result['why']}")
    print(f"   inputs: {json.dumps(result['inputs'])}")
    print(f"   env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} threads={env['threads']} "
          f"backend={env['backend']} store_fs={env['store_fs']}")
    for op, row in result["ops"].items():
        print(f"   op {op:<12} median {row['value']:.4f} s  q1 {row['q1']:.4f}  "
              f"q3 {row['q3']:.4f}  n={row['n']}  (wall {row['wall']['value']:.4f} s)  "
              f"x{row['reps']}  peak {row['peak_mb']:.1f} MB  "
              f"digests {' '.join(d[:8] for d in row['digests'] if d)}")
    for metric, row in result["metrics"].items():
        spread = f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n={row['n']}" if "q1" in row else ""
        print(f"   {metric:<44} {row['value']:>14.6g} {row['unit']:<6}{spread}")
    reported = result["reported"]
    if reported["eps_refuted"] is not None:
        print(f"   {'eps_refuted (no bound)':<44} {reported['eps_refuted']:>14.6g} 1")
    print(f"   {'failed_frac (no bound)':<44} {reported['failed_frac']:>14.6g} 1"
          f"      {result['failed']} of {result['attempted']} op calls")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    for op, row in result["trace_integrity"].items():
        print(f"   trace integrity {op:<12} layer seconds / untraced median "
              f"{row['layer_sum_x']:.3f}, outside layer spans {row['outside_frac']:.2%}"
              f"  {'ok' if row['ok'] else 'OUTSIDE 10%'}")
    if result["trace_file"]:
        print(f"   trace: {result['trace_file']}")
    print(f"   result: {result['result_file']}")


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": row["value"], "unit": row["unit"]}
            for metric, row in result["metrics"].items()
        },
    })
