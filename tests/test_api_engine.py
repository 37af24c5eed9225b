"""Tests for the unified engine (repro.api): parity, telemetry, the method table.

The parity tests are the load-bearing guarantee of the API redesign:
``Engine.run`` must produce *bit-identical* edge selections to the legacy
entry point of every method at the same seed.  (The legacy
koutis pipeline is itself pinned to the seed implementation by
``tests/golden/spanner_goldens.json`` / ``tests/test_spanner_golden.py``,
so engine == legacy == golden transitively.)
"""

import numpy as np
import pytest

import repro
from repro.api import (
    Engine,
    SparsifyRequest,
    available_method_names,
    available_methods,
    compare_methods,
    get_method,
    sparsify,
)
from repro.baselines.kapralov_panigrahi import kapralov_panigrahi_sparsify
from repro.baselines.spielman_srivastava import spielman_srivastava_sparsify
from repro.baselines.uniform import uniform_sparsify
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import distributed_parallel_sparsify
from repro.core.sparsify import parallel_sparsify
from repro.exceptions import MethodError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.parallel.metrics import combine_parallel
from repro.utils.rng import as_rng, split_rng

# Every name the table accepts, mapped to the canonical method it resolves to.
METHOD_NAMES = {
    "koutis": "koutis",
    "parallel-sparsify": "koutis",
    "koutis-distributed": "koutis-distributed",
    "distributed": "koutis-distributed",
    "spielman-srivastava": "spielman-srivastava",
    "ss": "spielman-srivastava",
    "uniform": "uniform",
    "kapralov-panigrahi": "kapralov-panigrahi",
    "kp": "kapralov-panigrahi",
    "k-out": "k-out",
    "kout": "k-out",
    "streaming": "streaming",
    "stream": "streaming",
}
BUILTIN_METHODS = tuple(sorted(set(METHOD_NAMES.values())))


def assert_same_edges(a: Graph, b: Graph) -> None:
    """Bit-identical edge selection: arrays equal, not just set-equal."""
    assert a.num_vertices == b.num_vertices
    np.testing.assert_array_equal(a.edge_u, b.edge_u)
    np.testing.assert_array_equal(a.edge_v, b.edge_v)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)


class TestRegistry:
    def test_all_builtin_methods_registered(self):
        assert available_methods() == BUILTIN_METHODS

    def test_aliases_resolve_to_canonical(self):
        for name, canonical in METHOD_NAMES.items():
            assert get_method(name).name == canonical

    def test_unknown_method_raises_with_listing(self):
        with pytest.raises(MethodError, match="koutis"):
            get_method("quantum-annealer")

    def test_engine_resolves_method_eagerly(self):
        with pytest.raises(MethodError):
            Engine(SparsifyRequest(method="no-such-method"))

    def test_aliases_listed_in_method_names(self):
        assert available_method_names() == tuple(sorted(METHOD_NAMES))
        # Canonical listing stays alias-free.
        assert "ss" not in available_methods()


class TestMethodTable:
    """Every table entry runs through the engine with the unified result shape."""

    @pytest.mark.parametrize("method", available_methods())
    def test_runs_through_the_engine(self, method):
        # At this size uniform's epsilon budget keeps every edge; a fixed
        # probability makes its output depend on the seed.
        options = {"probability": 0.5} if method == "uniform" else {}
        graph = generators.erdos_renyi_graph(40, 0.3, seed=5, ensure_connected=True)
        config = SparsifierConfig(bundle_t=2)
        events = []
        result = repro.sparsify(
            graph, method=method, seed=3, config=config, certify=True,
            progress=events.append, **options,
        )
        native = result.native
        assert isinstance(native.sparsifier, Graph)
        assert isinstance(native.input_edges, int)
        assert isinstance(native.output_edges, int)
        assert result.certificate is not None
        kinds = [event.kind for event in events]
        assert kinds.count("result") == 1 and kinds[-1] == "result"

        graphs = [
            generators.erdos_renyi_graph(40, 0.3, seed=i, ensure_connected=True)
            for i in range(3)
        ]
        batch = Engine(
            SparsifyRequest(
                method=method, seed=21, config=config.with_overrides(backend="thread", max_workers=2),
                options=options,
            )
        ).run_many(graphs)
        runner = get_method(method).runner
        for job, graph_i, rng in zip(batch.results, graphs, split_rng(as_rng(21), len(graphs))):
            solo = runner(
                graph_i, config=config, epsilon=None, rho=4.0, seed=rng,
                options=dict(options), emit=lambda kind, **fields: None,
            )
            assert_same_edges(job.sparsifier, solo.sparsifier)


class TestParity:
    """Engine output == legacy entry point output, bit for bit."""

    def test_koutis(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="koutis", epsilon=0.5, rho=4.0, seed=7)
        legacy = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4.0, seed=7)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)
        assert unified.input_edges == legacy.input_edges
        assert unified.output_edges == legacy.output_edges
        assert unified.cost == legacy.cost

    def test_koutis_distributed(self, small_er_graph):
        config = SparsifierConfig(bundle_t=2)
        unified = sparsify(
            small_er_graph, method="koutis-distributed", epsilon=0.5, rho=4.0,
            seed=11, config=config,
        )
        legacy = distributed_parallel_sparsify(
            small_er_graph, epsilon=0.5, rho=4.0, config=config, seed=11
        )
        assert_same_edges(unified.sparsifier, legacy.sparsifier)
        assert unified.cost == legacy.cost

    def test_spielman_srivastava(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="spielman-srivastava", epsilon=0.5, seed=2)
        legacy = spielman_srivastava_sparsify(medium_er_graph, epsilon=0.5, seed=2)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)

    def test_spielman_srivastava_options_forwarded(self, small_er_graph):
        unified = sparsify(
            small_er_graph, method="spielman-srivastava", epsilon=0.5, seed=4,
            num_samples=400, use_approximate_resistances=True,
        )
        legacy = spielman_srivastava_sparsify(
            small_er_graph, epsilon=0.5, seed=4,
            num_samples=400, use_approximate_resistances=True,
        )
        assert_same_edges(unified.sparsifier, legacy.sparsifier)
        assert unified.native.solver_based

    def test_uniform_probability_option(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="uniform", seed=9, probability=0.25)
        legacy = uniform_sparsify(medium_er_graph, probability=0.25, seed=9)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)

    def test_uniform_epsilon_path(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="uniform", epsilon=0.4, seed=9)
        legacy = uniform_sparsify(medium_er_graph, epsilon=0.4, seed=9)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)

    def test_uniform_rejects_probability_epsilon_conflict(self, small_er_graph):
        # The engine surfaces the same conflict the legacy function rejects.
        from repro.exceptions import SparsificationError

        with pytest.raises(SparsificationError, match="not both"):
            sparsify(small_er_graph, method="uniform", epsilon=0.5, seed=1,
                     probability=0.3)

    def test_kapralov_panigrahi(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="kapralov-panigrahi", epsilon=0.5, seed=6)
        legacy = kapralov_panigrahi_sparsify(medium_er_graph, epsilon=0.5, seed=6)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)

    def test_engine_run_is_repeatable(self, small_er_graph):
        engine = Engine(SparsifyRequest(method="koutis", epsilon=0.5, seed=13))
        first = engine.run(small_er_graph)
        second = engine.run(small_er_graph)
        assert_same_edges(first.sparsifier, second.sparsifier)


class TestRunMany:
    def _graphs(self):
        return [
            generators.erdos_renyi_graph(50, 0.2, seed=i, ensure_connected=True)
            for i in range(3)
        ]

    def _solo_runs(self, graphs, seed, config):
        """Solo ``parallel_sparsify`` runs on the pre-split batch streams."""
        job_rngs = split_rng(as_rng(seed), len(graphs))
        return [
            parallel_sparsify(graph, epsilon=0.5, config=config, seed=job_rngs[i])
            for i, graph in enumerate(graphs)
        ]

    @pytest.mark.parametrize("backend,workers", [(None, None), ("thread", 2)])
    def test_matches_solo_runs(self, backend, workers):
        graphs = self._graphs()
        config = SparsifierConfig(bundle_t=2)
        engine = Engine(
            SparsifyRequest(
                method="koutis", epsilon=0.5, seed=21,
                config=config.with_overrides(backend=backend, max_workers=workers),
            )
        )
        batch = engine.run_many(graphs)
        solo = self._solo_runs(graphs, 21, config)
        assert batch.num_jobs == len(solo) == 3
        for unified, job in zip(batch.results, solo):
            assert_same_edges(unified.sparsifier, job.sparsifier)
        assert batch.total_input_edges == sum(job.input_edges for job in solo)
        assert batch.total_output_edges == sum(job.output_edges for job in solo)

    def test_backend_metadata_and_iteration(self):
        graphs = self._graphs()
        engine = Engine(
            SparsifyRequest(
                method="uniform", seed=2, config=SparsifierConfig(backend="thread", max_workers=2)
            )
        )
        batch = engine.run_many(graphs)
        assert batch.backend_name == "thread"
        assert batch.max_workers == 2
        assert batch.method == "uniform"
        assert len(list(batch)) == 3
        assert batch[0].output_edges <= graphs[0].num_edges

    def test_empty_batch(self):
        batch = Engine(SparsifyRequest(method="koutis")).run_many([])
        assert batch.num_jobs == 0
        assert batch.reduction_factor == 1.0
        assert batch.cost is None

    def test_aggregate_cost_matches_legacy_batch(self):
        graphs = self._graphs()
        config = SparsifierConfig(bundle_t=2)
        batch = Engine(
            SparsifyRequest(method="koutis", epsilon=0.5, seed=21, config=config)
        ).run_many(graphs)
        solo = self._solo_runs(graphs, 21, config)
        assert batch.cost == combine_parallel(job.cost for job in solo)

    def test_aggregate_cost_none_for_baselines(self):
        batch = Engine(SparsifyRequest(method="uniform", seed=1)).run_many(
            self._graphs()
        )
        assert batch.cost is None

    def test_per_job_events_in_input_order(self):
        graphs = self._graphs()
        events = []
        engine = Engine(
            SparsifyRequest(method="uniform", seed=3), progress=events.append
        )
        engine.run_many(graphs)
        assert [event.job_index for event in events] == [0, 1, 2]
        assert all(event.kind == "result" for event in events)


class TestTelemetry:
    def test_koutis_emits_per_round_events(self, small_er_graph):
        events = []
        result = sparsify(
            small_er_graph, method="koutis", epsilon=0.5, rho=8.0, seed=1,
            config=SparsifierConfig(bundle_t=1), progress=events.append,
        )
        rounds = [event for event in events if event.kind == "round"]
        finals = [event for event in events if event.kind == "result"]
        assert len(rounds) == len(result.native.rounds)
        assert [event.round_index for event in rounds] == list(
            range(1, len(rounds) + 1)
        )
        # Round telemetry mirrors the recorded rounds exactly.
        for event, record in zip(rounds, result.native.rounds):
            assert event.input_edges == record.input_edges
            assert event.output_edges == record.output_edges
        assert len(finals) == 1
        assert finals[0].output_edges == result.output_edges
        assert all(event.method == "koutis" for event in events)

    def test_distributed_emits_per_round_events(self, small_er_graph):
        events = []
        sparsify(
            small_er_graph, method="koutis-distributed", epsilon=0.5, seed=1,
            config=SparsifierConfig(bundle_t=2), progress=events.append,
        )
        rounds = [event for event in events if event.kind == "round"]
        assert rounds and [event.round_index for event in rounds] == list(
            range(1, len(rounds) + 1)
        )

    def test_single_shot_methods_emit_one_result_event(self, small_er_graph):
        events = []
        sparsify(small_er_graph, method="uniform", seed=1, progress=events.append)
        assert [event.kind for event in events] == ["result"]

    def test_no_progress_callback_is_fine(self, small_er_graph):
        result = sparsify(small_er_graph, method="koutis", seed=1)
        assert result.output_edges > 0


class TestUnifiedResult:
    def test_certificate_attached_on_request(self, small_er_graph):
        result = sparsify(
            small_er_graph, method="koutis", epsilon=0.5, seed=2, certify=True,
            config=SparsifierConfig(bundle_t=2),
        )
        assert result.certificate is not None
        assert result.certificate.lower > 0
        summary = result.summary()
        assert summary["cert_lower"] == result.certificate.lower

    def test_certificate_absent_by_default(self, small_er_graph):
        result = sparsify(small_er_graph, method="koutis", seed=2)
        assert result.certificate is None
        assert result.summary()["cert_lower"] is None

    def test_summary_fields(self, small_er_graph):
        result = sparsify(small_er_graph, method="uniform", seed=1, probability=0.5)
        summary = result.summary()
        assert summary["method"] == "uniform"
        assert summary["rounds"] == 1
        assert summary["input_edges"] == small_er_graph.num_edges
        assert summary["wall_seconds"] >= 0
        assert result.num_edges == result.output_edges

    def test_comparison_table_renders(self, small_er_graph):
        from repro.analysis.reporting import comparison_table

        results = compare_methods(
            small_er_graph, ["koutis", "uniform"], epsilon=0.5, seed=3,
            config=SparsifierConfig(bundle_t=2),
        )
        table = comparison_table(results)
        assert "koutis" in table and "uniform" in table
        assert "reduction" in table

    def test_compare_methods_requires_a_method(self, small_er_graph):
        with pytest.raises(MethodError):
            compare_methods(small_er_graph, [])

