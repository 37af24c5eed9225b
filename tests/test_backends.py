"""Tests for the execution-backend layer (repro.parallel.backends)."""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Engine, SparsifyRequest
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import distributed_parallel_sparsify
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import BackendError, SparsificationError
from repro.graphs import generators as gen
from repro.parallel.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.streaming import StreamingSparsifier


def _square(x):
    return x * x


def _add_shared(x, shared):
    return x + shared["offset"]


def _boom(x):
    if x == 0:
        raise RuntimeError("job failed")
    time.sleep(0.01)
    return x


ALL_BACKENDS = ["serial", "thread", "process"]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("process", "serial", "thread")

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_get_backend_by_name(self, name):
        backend = get_backend(name, max_workers=2)
        assert backend.name == name
        assert backend.max_workers == 2

    def test_get_backend_default_is_serial(self):
        assert get_backend().name == "serial"

    def test_workers_without_backend_refuses_silent_serial(self):
        # max_workers > 1 against the implicit serial default would run
        # everything sequentially while the caller believes otherwise.
        with pytest.raises(BackendError, match="serial"):
            get_backend(None, max_workers=8)
        # Explicitly naming 'serial' is a deliberate choice and stays OK.
        assert get_backend("serial", max_workers=8).name == "serial"

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError):
            get_backend("quantum")

    def test_bad_spec_raises(self):
        with pytest.raises(BackendError):
            get_backend(42)

    def test_invalid_max_workers(self):
        with pytest.raises(BackendError):
            ThreadBackend(max_workers=0)

    def test_config_validates_execution_fields(self):
        with pytest.raises(SparsificationError):
            SparsifierConfig(max_workers=0)
        with pytest.raises(SparsificationError, match="warp-drive"):
            SparsifierConfig(backend="warp-drive")


class TestMapSemantics:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_results_preserve_input_order(self, name):
        backend = get_backend(name, max_workers=4)
        assert backend.map(_square, list(range(10))) == [x * x for x in range(10)]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_items(self, name):
        assert get_backend(name, max_workers=2).map(_square, []) == []

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_shared_payload(self, name):
        backend = get_backend(name, max_workers=2)
        out = backend.map(_add_shared, [1, 2, 3], shared={"offset": 10})
        assert out == [11, 12, 13]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_first_error_propagates(self, name):
        backend = get_backend(name, max_workers=2)
        with pytest.raises(RuntimeError, match="job failed"):
            backend.map(_boom, [0, 1, 2])

    def test_thread_error_cancels_pending_items(self):
        # One worker, failing first item, slow tail items.  Without
        # fail-fast cancellation every tail item would run during pool
        # shutdown; with it only the item(s) already dequeued may slip
        # through before the caller cancels the rest.
        executed = []
        lock = threading.Lock()

        def job(x):
            if x == 0:
                raise RuntimeError("fail first")
            time.sleep(0.02)
            with lock:
                executed.append(x)
            return x

        backend = ThreadBackend(max_workers=1)
        with pytest.raises(RuntimeError, match="fail first"):
            backend.map(job, list(range(30)))
        assert len(executed) < 29

    def test_process_backend_shared_pickled_payload(self):
        backend = ProcessBackend(max_workers=2)
        shared = {"offset": np.int64(5)}
        assert backend.map(_add_shared, [1, 2, 3, 4], shared=shared) == [6, 7, 8, 9]


# Dense enough that a 2-bundle leaves room for sampling.
DENSE = gen.erdos_renyi_graph(96, 0.25, seed=13, ensure_connected=True)
BATCH = [gen.erdos_renyi_graph(60, 0.3, seed=s, ensure_connected=True) for s in range(4)]
BACKEND_MATRIX = [
    ("serial", 1),
    ("serial", 4),
    ("thread", 1),
    ("thread", 4),
    ("process", 1),
    ("process", 4),
]


def _edge_tuple(graph):
    g = graph.coalesce()
    return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())


def _batch_edges(method, backend, workers):
    config = SparsifierConfig.practical(bundle_t=2, backend=backend, max_workers=workers)
    request = SparsifyRequest(method=method, epsilon=0.5, rho=4, seed=11, config=config)
    batch = Engine(request).run_many(BATCH)
    assert batch.backend_name == backend
    return [_edge_tuple(result.sparsifier) for result in batch.results]


class TestBackendDeterminism:
    """Same seed => bit-identical ``run_many`` batches on every backend/worker count."""

    @pytest.fixture(scope="class")
    def pram_reference(self):
        reference = _batch_edges("koutis", "serial", 1)
        assert any(len(edges[0]) < g.num_edges for edges, g in zip(reference, BATCH))
        return reference

    @pytest.fixture(scope="class")
    def distributed_reference(self):
        reference = _batch_edges("koutis-distributed", "serial", 1)
        assert any(len(edges[0]) < g.num_edges for edges, g in zip(reference, BATCH))
        return reference

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_parallel_sparsify_identical(self, backend, workers, pram_reference):
        assert _batch_edges("koutis", backend, workers) == pram_reference

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_distributed_sparsify_identical(self, backend, workers, distributed_reference):
        assert _batch_edges("koutis-distributed", backend, workers) == distributed_reference

    def test_worker_count_does_not_change_batch_output(self):
        graphs = [gen.erdos_renyi_graph(40, 0.2, seed=i, ensure_connected=True) for i in range(4)]

        def run(workers):
            request = SparsifyRequest(
                method="koutis", epsilon=0.5, rho=4, seed=3,
                config=SparsifierConfig(backend="thread", max_workers=workers),
            )
            return Engine(request).run_many(graphs)

        one = run(1)
        four = run(4)
        for a, b in zip(one.results, four.results):
            assert _edge_tuple(a.sparsifier) == _edge_tuple(b.sparsifier)


class _CountingBackend(SerialBackend):
    """Serial backend counting the fan-outs routed through it."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def map(self, *args, **kwargs):
        self.calls += 1
        return super().map(*args, **kwargs)

    def map_outcomes(self, *args, **kwargs):
        self.calls += 1
        return super().map_outcomes(*args, **kwargs)


def _stream_with_a_compaction():
    graph = gen.banded_graph(60, 6)
    stream = StreamingSparsifier(graph.num_vertices, compaction_interval=100, seed=1)
    record = stream.ingest(np.column_stack([graph.edge_u, graph.edge_v]), graph.edge_weights)
    assert record.compactions_run >= 1


FAN_OUTS = {
    "stream-compaction": _stream_with_a_compaction,
    "run_many": lambda: Engine(SparsifyRequest(method="koutis", seed=1)).run_many([DENSE, DENSE]),
}


class TestBackendSeam:
    """Every fan-out gets its backend from ``SparsifierConfig.execution_backend``."""

    @pytest.mark.parametrize("fan_out", list(FAN_OUTS))
    def test_fan_out_runs_on_the_config_backend(self, fan_out, monkeypatch):
        backend = _CountingBackend()
        monkeypatch.setattr(SparsifierConfig, "execution_backend", lambda config: backend)
        FAN_OUTS[fan_out]()
        assert backend.calls >= 1

    @pytest.mark.parametrize("driver", [parallel_sparsify, distributed_parallel_sparsify])
    def test_one_run_never_fans_out(self, driver, monkeypatch):
        # Each PARALLELSAMPLE round runs on the whole graph in the caller.
        backend = _CountingBackend()
        monkeypatch.setattr(SparsifierConfig, "execution_backend", lambda config: backend)
        config = SparsifierConfig.practical(bundle_t=2, backend="thread", max_workers=2)
        result = driver(DENSE, epsilon=0.5, rho=4, config=config, seed=1)
        assert result.sparsifier.num_edges < DENSE.num_edges
        assert backend.calls == 0

    @pytest.mark.parametrize(
        "execution",
        [
            {"backend": "thread", "max_workers": 2},
            {"backend": "process"},
            {"backend": "serial", "max_workers": 4},
        ],
        ids=["thread-2", "process", "serial-4"],
    )
    @pytest.mark.parametrize("method", ["koutis", "koutis-distributed", "uniform"])
    def test_one_run_warns_that_its_backend_does_nothing(self, method, execution):
        config = SparsifierConfig.practical(bundle_t=2, **execution)
        with pytest.warns(UserWarning, match="only run_many jobs and stream compactions") as caught:
            result = repro.sparsify(DENSE, method=method, rho=4, config=config, seed=1)
        assert len([w for w in caught if "use a backend" in str(w.message)]) == 1
        assert result.output_edges <= DENSE.num_edges

    @pytest.mark.parametrize(
        "run, config",
        [
            pytest.param(
                lambda config: Engine(
                    SparsifyRequest(method="koutis", seed=1, config=config)
                ).run_many([DENSE, DENSE]),
                SparsifierConfig(backend="thread", max_workers=2),
                id="run_many",
            ),
            pytest.param(
                lambda config: repro.sparsify(DENSE, method="streaming", config=config, seed=1),
                SparsifierConfig(backend="thread", max_workers=2),
                id="streaming",
            ),
            pytest.param(
                lambda config: repro.sparsify(DENSE, method="koutis", config=config, seed=1),
                SparsifierConfig(backend="serial", max_workers=1),
                id="serial",
            ),
        ],
    )
    def test_fan_outs_and_serial_runs_do_not_warn(self, run, config):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(config)
        assert not [w for w in caught if "use a backend" in str(w.message)]

    def test_injecting_is_not_a_backend_name(self):
        # In a fresh interpreter, so "before the import" really is before it.
        script = (
            "import sys\n"
            "import pytest\n"
            "from repro.core.config import SparsifierConfig\n"
            "from repro.exceptions import SparsificationError\n"
            "from repro.parallel import available_backends\n"
            "def check():\n"
            "    with pytest.raises(SparsificationError, match='injecting'):\n"
            "        SparsifierConfig(backend='injecting')\n"
            "    assert available_backends() == ('process', 'serial', 'thread')\n"
            "assert 'repro.testing.faults' not in sys.modules\n"
            "check()\n"
            "import repro.testing.faults\n"
            "check()\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
