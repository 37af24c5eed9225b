"""Smoke test of the e2ebench benchmark: every declared metric, with its unit.

Runs every workload at smoke size, untraced and traced, in subprocesses
(the benchmark pins BLAS threads before NumPy loads, so it needs a fresh
interpreter), then checks the result contract against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _start(out: Path, trace: int, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "e2ebench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2ebench")
    # The untraced and traced runs are independent processes: run them side by side.
    started = {trace: _start(out, trace) for trace in (0, 1)}
    runs = {trace: _finish(proc) for trace, proc in started.items()}
    for trace, proc in runs.items():
        assert proc.returncode == 0, f"trace={trace}: {proc.stderr[-3000:]}"
    by_key = {}
    for path in (out / "results").glob("*.json"):
        result = json.loads(path.read_text(encoding="utf-8"))
        by_key[(result["workload"], result["trace"])] = result
    return out, runs, by_key


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(results, trace, section):
    _, _, by_key = results
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        result = by_key[(workload, trace)]
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        emitted = {name: row["unit"] for name, row in result["metrics"].items()}
        assert emitted == declared, workload
        for name, row in result["metrics"].items():
            assert isinstance(row["value"], (int, float)), name


def test_last_line_is_the_contract_object(results):
    _, runs, _ = results
    for proc in runs.values():
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"][next(iter(last["metrics"]))]) == {"value", "unit"}


def test_trace_files_and_digests(results):
    _, _, by_key = results
    for workload in WORKLOADS:
        traced = by_key[(workload, 1)]
        spans = json.loads(Path(traced["trace_file"]).read_text(encoding="utf-8"))["spans"]
        assert {s["op"] for s in spans} == {"batch", "certify", "distributed", "ingest", "recover"}
        untraced = by_key[(workload, 0)]
        # Same seed, same inputs: each op's output digests repeat across runs
        # (a traced smoke run covers fewer input sets than an untraced one).
        for op, row in traced["ops"].items():
            pairs = zip(row["digests"], untraced["ops"][op]["digests"])
            assert all(a == b for a, b in pairs if a and b), op
            assert row["digests"][0], op
        assert untraced["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_compare_two_result_sets(results):
    out, _, _ = results
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out / "results"), str(out / "results")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "REGRESSION" not in proc.stdout
    assert all(workload in proc.stdout for workload in WORKLOADS)
    assert proc.stdout.count("bit-identical") == len(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _finish(_start(bare / "e2ebench" / "out", 0, cwd=bare))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
