"""Tests for the unified engine (repro.api): parity, telemetry, extension.

The parity tests are the load-bearing guarantee of the API redesign:
``Engine.run`` must produce *bit-identical* edge selections to the legacy
entry point of every registered method at the same seed.  (The legacy
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
    method_descriptions,
    register_method,
    sparsify,
    unregister_method,
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

BUILTIN_METHODS = (
    "koutis",
    "koutis-distributed",
    "spielman-srivastava",
    "uniform",
    "kapralov-panigrahi",
)


def assert_same_edges(a: Graph, b: Graph) -> None:
    """Bit-identical edge selection: arrays equal, not just set-equal."""
    assert a.num_vertices == b.num_vertices
    np.testing.assert_array_equal(a.edge_u, b.edge_u)
    np.testing.assert_array_equal(a.edge_v, b.edge_v)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)


class TestRegistry:
    def test_all_builtin_methods_registered(self):
        names = available_methods()
        for method in BUILTIN_METHODS:
            assert method in names

    def test_aliases_resolve_to_canonical(self):
        assert get_method("ss").name == "spielman-srivastava"
        assert get_method("kp").name == "kapralov-panigrahi"
        assert get_method("distributed").name == "koutis-distributed"

    def test_unknown_method_raises_with_listing(self):
        with pytest.raises(MethodError, match="koutis"):
            get_method("quantum-annealer")

    def test_descriptions_present(self):
        descriptions = method_descriptions()
        for method in BUILTIN_METHODS:
            assert descriptions[method]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(MethodError, match="already registered"):
            register_method("koutis")(lambda *a, **k: None)

    def test_engine_resolves_method_eagerly(self):
        with pytest.raises(MethodError):
            Engine(SparsifyRequest(method="no-such-method"))

    def test_aliases_listed_in_method_names(self):
        names = available_method_names()
        for alias in ("ss", "kp", "distributed", "parallel-sparsify"):
            assert alias in names
        # Canonical listing stays alias-free.
        assert "ss" not in available_methods()

    def test_replace_over_alias_is_reachable_and_reversible(self):
        # Registering on top of an existing *alias* must not be shadowed
        # by the alias table, and must not delete the alias's owner.
        def runner(graph, **kwargs):
            raise NotImplementedError

        register_method("ss", replace=True)(runner)
        try:
            assert get_method("ss").runner is runner
            assert get_method("spielman-srivastava").name == "spielman-srivastava"
        finally:
            assert unregister_method("ss")
        # Restore the builtin alias for the rest of the suite.
        import repro.baselines.methods as baseline_methods

        register_method(
            "spielman-srivastava", aliases=("ss",), replace=True,
            description=get_method("spielman-srivastava").description,
        )(baseline_methods.run_spielman_srivastava)
        assert get_method("ss").name == "spielman-srivastava"

    def test_replace_canonical_cleans_stale_aliases(self):
        def first(graph, **kwargs):
            raise NotImplementedError

        def second(graph, **kwargs):
            raise NotImplementedError

        register_method("tmp-method", aliases=("tmp-alias",))(first)
        try:
            register_method("tmp-method", replace=True)(second)
            assert get_method("tmp-method").runner is second
            with pytest.raises(MethodError):
                get_method("tmp-alias")  # stale alias must not survive
        finally:
            unregister_method("tmp-method")


class TestParity:
    """Engine output == legacy entry point output, bit for bit."""

    def test_koutis(self, medium_er_graph):
        unified = sparsify(medium_er_graph, method="koutis", epsilon=0.5, rho=4.0, seed=7)
        legacy = parallel_sparsify(medium_er_graph, epsilon=0.5, rho=4.0, seed=7)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)
        assert unified.input_edges == legacy.input_edges
        assert unified.output_edges == legacy.output_edges
        assert unified.cost == legacy.cost

    def test_koutis_sharded_on_thread_backend(self):
        graph = generators.grid_graph(12, 12)
        config = SparsifierConfig(bundle_t=2, num_shards=4, backend="thread", max_workers=2)
        unified = sparsify(graph, method="koutis", epsilon=0.5, seed=3, config=config)
        legacy = parallel_sparsify(graph, epsilon=0.5, config=config, seed=3)
        assert_same_edges(unified.sparsifier, legacy.sparsifier)

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
                method="koutis", epsilon=0.5, seed=21, config=config,
                backend=backend, max_workers=workers,
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
            SparsifyRequest(method="uniform", seed=2, backend="thread", max_workers=2)
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


def _run_top_k(graph, *, config, epsilon, rho, seed, options, emit):
    """Toy third-party method: keep the k heaviest edges (deterministic)."""
    k = int(options.get("k", max(1, graph.num_edges // 2)))
    order = np.argsort(graph.edge_weights, kind="stable")[::-1][:k]
    kept = np.sort(order)
    sparsifier = Graph(
        graph.num_vertices,
        graph.edge_u[kept],
        graph.edge_v[kept],
        graph.edge_weights[kept],
    )
    emit("round", round_index=1, input_edges=graph.num_edges,
         output_edges=sparsifier.num_edges)

    class TopKResult:
        def __init__(self):
            self.sparsifier = sparsifier
            self.input_edges = graph.num_edges
            self.output_edges = sparsifier.num_edges

    return TopKResult()


class TestCustomMethodExtension:
    """register_method is a public extension point: a third-party method
    gets the full engine — requests, telemetry, batching, unified results."""

    @pytest.fixture()
    def top_k(self):
        register_method("top-k-weight", description="keep the k heaviest edges")(
            _run_top_k
        )
        yield "top-k-weight"
        assert unregister_method("top-k-weight")

    def test_registered_method_runs_through_front_door(self, top_k, weighted_er_graph):
        result = repro.sparsify(weighted_er_graph, method=top_k, seed=0, k=40)
        assert result.method == top_k
        assert result.output_edges == 40
        heaviest = np.sort(weighted_er_graph.edge_weights)[-40:]
        np.testing.assert_allclose(
            np.sort(result.sparsifier.edge_weights), heaviest
        )

    def test_custom_method_listed_and_unlisted(self, top_k):
        assert top_k in available_methods()
        assert unregister_method(top_k)
        assert top_k not in available_methods()
        # Re-register so the fixture teardown's unregister still succeeds.
        register_method(top_k)(_run_top_k)

    def test_custom_method_gets_batching_and_backends(self, top_k):
        graphs = [
            generators.erdos_renyi_graph(
                40, 0.3, seed=i, weight_range=(0.5, 5.0), ensure_connected=True
            )
            for i in range(4)
        ]
        engine = Engine(
            SparsifyRequest(
                method=top_k, seed=1, backend="thread", max_workers=2,
                options={"k": 25},
            )
        )
        batch = engine.run_many(graphs)
        assert batch.num_jobs == 4
        assert batch.backend_name == "thread"
        assert all(result.output_edges == 25 for result in batch.results)

    def test_custom_method_gets_telemetry_and_certificates(self, top_k, weighted_er_graph):
        events = []
        result = repro.sparsify(
            weighted_er_graph, method=top_k, seed=0, certify=True,
            k=weighted_er_graph.num_edges, progress=events.append,
        )
        # Keeping every edge is a perfect sparsifier: certificate == 1.
        assert result.certificate.epsilon_achieved < 1e-9
        assert [event.kind for event in events] == ["round", "result"]

    def test_unregister_unknown_returns_false(self):
        assert not unregister_method("never-registered")
