"""Tests for the batch fan-out: ``Engine.run_many`` on the koutis method.

Job ``i`` of a batch must be bit-identical to a solo ``parallel_sparsify``
run on the ``i``-th pre-split RNG stream of the batch seed, on every
backend and worker count, with and without a checkpoint journal.
"""

import pytest

from repro.api import Engine, SparsifyRequest, UnifiedBatchResult
from repro.core.config import SparsifierConfig
from repro.core.sparsify import parallel_sparsify
from repro.graphs import generators as gen
from repro.parallel.metrics import combine_parallel
from repro.utils.rng import as_rng, split_rng


@pytest.fixture(scope="module")
def graph_batch():
    return [gen.erdos_renyi_graph(50, 0.2, seed=i, ensure_connected=True) for i in range(4)]


def _edge_tuple(graph):
    g = graph.coalesce()
    return (g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weights.tolist())


def sparsify_batch(graphs, *, epsilon=0.5, rho=4, seed=None, config=None, checkpoint=None):
    request = SparsifyRequest(
        method="koutis", epsilon=epsilon, rho=rho, seed=seed, config=config,
    )
    return Engine(request).run_many(graphs, checkpoint=checkpoint)


def _solo_edges(graphs, seed):
    """Solo ``parallel_sparsify`` runs on the pre-split batch streams."""
    job_rngs = split_rng(as_rng(seed), len(graphs))
    return [
        _edge_tuple(parallel_sparsify(graph, epsilon=0.5, rho=4, seed=job_rngs[i]).sparsifier)
        for i, graph in enumerate(graphs)
    ]


class TestSparsifyMany:
    def test_results_in_input_order(self, graph_batch):
        result = sparsify_batch(graph_batch, seed=1)
        assert result.num_jobs == len(graph_batch)
        for graph, job in zip(graph_batch, result.results):
            assert job.input_edges == graph.num_edges
            assert 0 < job.output_edges <= graph.num_edges

    def test_matches_individual_runs_bit_exactly(self, graph_batch):
        batch = sparsify_batch(graph_batch, seed=42)
        job_rngs = split_rng(as_rng(42), len(graph_batch))
        for i, graph in enumerate(graph_batch):
            solo = parallel_sparsify(graph, epsilon=0.5, rho=4, seed=job_rngs[i])
            assert _edge_tuple(batch.results[i].sparsifier) == _edge_tuple(solo.sparsifier)

    @pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 2)])
    def test_backends_match_serial(self, graph_batch, backend, workers):
        serial = sparsify_batch(graph_batch, seed=7, config=SparsifierConfig(backend="serial"))
        other = sparsify_batch(
            graph_batch, seed=7, config=SparsifierConfig(backend=backend, max_workers=workers)
        )
        assert other.backend_name == backend
        for a, b in zip(serial.results, other.results):
            assert _edge_tuple(a.sparsifier) == _edge_tuple(b.sparsifier)

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize(
        "backend,workers", [("serial", None), ("thread", 4), ("process", 2)]
    )
    def test_matches_solo_runs_on_every_backend(
        self, graph_batch, backend, workers, checkpoint, tmp_path
    ):
        expected = _solo_edges(graph_batch, seed=5)
        journal = tmp_path / "batch.jsonl" if checkpoint else None
        config = SparsifierConfig(backend=backend, max_workers=workers)
        batch = sparsify_batch(graph_batch, seed=5, config=config, checkpoint=journal)
        assert batch.resumed_jobs == 0
        assert [_edge_tuple(r.sparsifier) for r in batch.results] == expected
        if not checkpoint:
            return
        # A partial journal (header + job 0) resumes the rest bit-identically,
        # and a full one restores every job.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")
        for resumed_jobs in (1, len(graph_batch)):
            resumed = sparsify_batch(graph_batch, seed=5, config=config, checkpoint=journal)
            assert resumed.resumed_jobs == resumed_jobs
            assert [_edge_tuple(r.sparsifier) for r in resumed.results] == expected

    def test_aggregate_cost_is_fork_join(self, graph_batch):
        result = sparsify_batch(graph_batch, seed=1)
        expected = combine_parallel(r.cost for r in result.results)
        assert result.cost.work == pytest.approx(expected.work)
        assert result.cost.depth == pytest.approx(expected.depth)
        # Fork/join: total work adds, depth is the max over jobs.
        assert result.cost.work == pytest.approx(sum(r.cost.work for r in result.results))
        assert result.cost.depth == pytest.approx(max(r.cost.depth for r in result.results))

    def test_totals_and_reduction_factor(self, graph_batch):
        result = sparsify_batch(graph_batch, seed=1)
        assert result.total_input_edges == sum(g.num_edges for g in graph_batch)
        assert result.total_output_edges == sum(r.output_edges for r in result.results)
        assert result.reduction_factor == pytest.approx(
            result.total_input_edges / result.total_output_edges
        )

    def test_empty_batch(self):
        result = sparsify_batch([], seed=0)
        assert isinstance(result, UnifiedBatchResult)
        assert result.num_jobs == 0
        assert result.total_input_edges == 0
        assert result.reduction_factor == 1.0

    def test_config_backend_fields_are_used(self, graph_batch):
        config = SparsifierConfig.practical(backend="thread", max_workers=2)
        result = sparsify_batch(graph_batch[:2], config=config, seed=3)
        assert result.backend_name == "thread"
        assert result.max_workers == 2
