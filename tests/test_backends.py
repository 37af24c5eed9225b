"""Tests for the pluggable execution-backend layer (repro.parallel.backends)."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import distributed_parallel_sparsify
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import BackendError
from repro.graphs import generators as gen
from repro.parallel.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
)


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
        assert {"serial", "thread", "process"} <= set(available_backends())

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
        previous = set_default_backend("thread", max_workers=2)
        try:
            assert get_backend(None, max_workers=8).max_workers == 8
        finally:
            set_default_backend(previous)

    def test_get_backend_passthrough_instance(self):
        backend = ThreadBackend(max_workers=3)
        assert get_backend(backend) is backend
        rebuilt = get_backend(backend, max_workers=5)
        assert isinstance(rebuilt, ThreadBackend) and rebuilt.max_workers == 5

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError):
            get_backend("quantum")

    def test_bad_spec_raises(self):
        with pytest.raises(BackendError):
            get_backend(42)

    def test_invalid_max_workers(self):
        with pytest.raises(BackendError):
            ThreadBackend(max_workers=0)

    def test_set_default_backend_round_trip(self):
        previous = set_default_backend("thread", max_workers=2)
        try:
            assert get_backend().name == "thread"
            assert get_backend().max_workers == 2
        finally:
            set_default_backend(previous)
        assert get_backend().name == "serial"

    def test_register_backend_rejects_non_backend(self):
        with pytest.raises(BackendError):
            register_backend(int)

    def test_register_custom_backend(self):
        @register_backend
        class _EchoBackend(SerialBackend):
            name = "echo-test"

        try:
            assert "echo-test" in available_backends()
            assert get_backend("echo-test").map(_square, [3]) == [9]
        finally:
            from repro.parallel import backends as backends_module

            backends_module._BACKEND_CLASSES.pop("echo-test", None)


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

    def test_starmap_and_run_all(self):
        backend = ThreadBackend(max_workers=2)
        assert backend.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]
        assert backend.run_all([lambda: 1, lambda: 2]) == [1, 2]

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


# Dense enough that a 2-bundle leaves room for sampling even per shard.
DENSE = gen.erdos_renyi_graph(96, 0.25, seed=13, ensure_connected=True)
SHARDED = dict(bundle_t=2, num_shards=4)
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


class TestBackendDeterminism:
    """Same seed => bit-identical sparsifiers on every backend/worker count."""

    @pytest.fixture(scope="class")
    def pram_reference(self):
        config = SparsifierConfig.practical(backend="serial", max_workers=1, **SHARDED)
        return _edge_tuple(parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config, seed=11).sparsifier)

    @pytest.fixture(scope="class")
    def distributed_reference(self):
        config = SparsifierConfig.practical(backend="serial", max_workers=1, **SHARDED)
        return _edge_tuple(
            distributed_parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config, seed=11).sparsifier
        )

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_parallel_sparsify_identical(self, backend, workers, pram_reference):
        config = SparsifierConfig.practical(backend=backend, max_workers=workers, **SHARDED)
        result = parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config, seed=11)
        assert _edge_tuple(result.sparsifier) == pram_reference

    @pytest.mark.parametrize("backend,workers", BACKEND_MATRIX)
    def test_distributed_sparsify_identical(self, backend, workers, distributed_reference):
        config = SparsifierConfig.practical(backend=backend, max_workers=workers, **SHARDED)
        result = distributed_parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config, seed=11)
        assert _edge_tuple(result.sparsifier) == distributed_reference

    def test_worker_count_does_not_change_batch_output(self):
        graphs = [gen.erdos_renyi_graph(40, 0.2, seed=i, ensure_connected=True) for i in range(4)]
        from repro.api import Engine, SparsifyRequest

        def run(workers):
            request = SparsifyRequest(
                method="koutis", epsilon=0.5, rho=4, seed=3, backend="thread",
                max_workers=workers,
            )
            return Engine(request).run_many(graphs)

        one = run(1)
        four = run(4)
        for a, b in zip(one.results, four.results):
            assert _edge_tuple(a.sparsifier) == _edge_tuple(b.sparsifier)


class TestShardedPipelines:
    def test_sharded_sample_output_is_valid_sparsifier(self):
        from repro.core.certificates import certify_approximation
        from repro.graphs.connectivity import is_connected

        config = SparsifierConfig.practical(**SHARDED)
        result = parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config, seed=2)
        assert is_connected(result.sparsifier)
        cert = certify_approximation(DENSE, result.sparsifier)
        assert 0 < cert.lower <= cert.upper < 5

    def test_sharded_distributed_cost_uses_concurrent_rounds(self):
        from repro.core.distributed_sparsify import distributed_parallel_sample

        sharded = distributed_parallel_sample(
            DENSE, epsilon=0.5, config=SparsifierConfig.practical(bundle_t=2, num_shards=4), seed=5
        )
        serial = distributed_parallel_sample(
            DENSE, epsilon=0.5, config=SparsifierConfig.practical(bundle_t=2), seed=5
        )
        assert sharded.num_shards == 4
        assert sharded.boundary_edges > 0
        # Concurrent shard networks: rounds compose with max (so no worse
        # than the sequential whole-graph protocol), and communication
        # drops because boundary edges never enter a protocol.
        assert sharded.cost.rounds <= serial.cost.rounds
        assert sharded.cost.messages < serial.cost.messages

    def test_shard_count_is_part_of_the_algorithm(self):
        config_1 = SparsifierConfig.practical(bundle_t=2, num_shards=1)
        config_4 = SparsifierConfig.practical(bundle_t=2, num_shards=4)
        a = parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config_1, seed=9)
        b = parallel_sparsify(DENSE, epsilon=0.5, rho=4, config=config_4, seed=9)
        # Different shard counts are different (equally valid) algorithms.
        assert _edge_tuple(a.sparsifier) != _edge_tuple(b.sparsifier)

    def test_config_validates_execution_fields(self):
        from repro.exceptions import SparsificationError

        with pytest.raises(SparsificationError):
            SparsifierConfig(num_shards=0)
        with pytest.raises(SparsificationError):
            SparsifierConfig(max_workers=0)
        with pytest.raises(BackendError):
            SparsifierConfig(backend="warp-drive").execution_backend()
