"""Engine-parity tests: the columnar CONGEST engine vs the per-node reference.

The columnar engine (:mod:`repro.parallel.congest` running
:class:`repro.spanners.congest_spanner.ColumnarBaswanaSenProgram`) must be
indistinguishable from the per-node reference simulator kept in
:mod:`repro.spanners._reference` on everything the paper measures:
spanner edge sets, the exact (rounds, messages, max_message_words)
triple, the per-round message histogram, and the word limit's trigger
behaviour.  Three layers of guards:

* live parity — both engines run on the same inputs in-test;
* frozen goldens — ``tests/golden/congest_goldens.json`` pins the
  reference outputs, so both engines are compared against values that
  cannot drift with the code (regenerable via
  ``tests/golden/generate_congest_goldens.py``);
* pipeline parity — the t-bundle peel and the distributed sparsifier
  reproduce, bit for bit, what they produced on the per-node engine
  (``PER_NODE_OUTPUTS`` below, stored when the pipeline could still
  select that engine), sharded or not.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import (
    distributed_parallel_sample,
    distributed_parallel_sparsify,
)
from repro.exceptions import MessageTooLargeError, SimulationError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.parallel.congest import (
    ColumnarProgram,
    ColumnarSimulator,
    MessageBlock,
    concat_ranges,
)
from repro.spanners._reference import (
    DistributedSimulator,
    _BaswanaSenProgram,
    reference_distributed_bundle_spanner,
    reference_distributed_spanner,
)
from repro.spanners.congest_spanner import ColumnarBaswanaSenProgram, build_schedule
from repro.spanners.distributed_spanner import (
    distributed_baswana_sen_spanner,
    distributed_bundle_spanner,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "congest_goldens.json"

ENGINES = {
    "reference": reference_distributed_spanner,
    "columnar": distributed_baswana_sen_spanner,
}

# What the per-node engine produced for the pipeline cases of
# TestBundleAndPipelineParity: sha256 prefixes (see ``digest``) of the
# selected index arrays and of the sparsifier's edge arrays, plus the
# exact (rounds, messages, max_message_words) triple.
PER_NODE_OUTPUTS = {
    "bundle": {
        "edges": "526cb3657eab1ab5",
        "num_edges": 350,
        "components": ["fa630532fad70755", "ba0bfb1928edc69b", "2475851589fea0c7"],
        "cost": (105, 5170, 3),
    },
    "sample-1": {
        "bundle": "0ab2f10ed0e6f51c",
        "sampled": "89b4ef3c8a8f9cfd",
        "sparsifier": "b20cbd49f40c0e4f",
        "cost": (71, 7499, 3),
    },
    "sample-4": {
        "bundle": "065790b344af44d0",
        "sampled": "d75e852588afabc3",
        "sparsifier": "04cd41a0b94be99b",
        "cost": (71, 6799, 3),
    },
    "sparsify": {
        "sparsifier": "7fe2dd5315a3d511",
        "output_edges": 454,
        "cost": (142, 21868, 3),
    },
}


def digest(*arrays) -> str:
    """sha256 prefix over the raw bytes of ``arrays``, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


def cost_triple(cost):
    return (cost.rounds, cost.messages, cost.max_message_words)


@pytest.fixture(scope="module")
def golden_cases():
    """Rebuild the exact graphs the goldens were generated from (once)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "congest_golden_generator", GOLDEN_PATH.parent / "generate_congest_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def run_both_simulators(graph: Graph, seed, k=None, max_rounds=None):
    """Drive both engines directly; returns (reference, columnar) results."""
    simple = graph.coalesce()
    n = simple.num_vertices
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    cap = max_rounds or (len(build_schedule(k)) + 4)
    reference = DistributedSimulator(simple, seed=seed).run(
        _BaswanaSenProgram(n, k), max_rounds=cap
    )
    columnar = ColumnarSimulator(simple, seed=seed).run(
        ColumnarBaswanaSenProgram(n, k), max_rounds=cap
    )
    return reference, columnar


class TestSpannerParity:
    """Edge sets and cost triples identical across engines and seeds."""

    @pytest.mark.parametrize("case_index", range(6))
    @pytest.mark.parametrize("seed_offset", [0, 100])
    def test_driver_parity(self, golden_cases, case_index, seed_offset):
        name, graph, seed, k = golden_cases[case_index]
        reference = reference_distributed_spanner(graph, k=k, seed=seed + seed_offset)
        columnar = distributed_baswana_sen_spanner(graph, k=k, seed=seed + seed_offset)
        assert np.array_equal(reference.edge_indices, columnar.edge_indices), name
        assert reference.cost == columnar.cost, name
        assert reference.completed == columnar.completed
        assert reference.k == columnar.k

    @pytest.mark.parametrize("case_index", range(6))
    def test_per_round_histogram_parity(self, golden_cases, case_index):
        name, graph, seed, k = golden_cases[case_index]
        reference, columnar = run_both_simulators(graph, seed, k=k)
        assert reference.messages_per_round == columnar.messages_per_round, name
        assert reference.rounds_executed == columnar.rounds_executed
        assert reference.completed and columnar.completed

    def test_truncated_run_parity(self):
        """Hitting max_rounds mid-protocol leaves both engines in the same state."""
        graph = gen.banded_graph(60, 5)
        reference, columnar = run_both_simulators(graph, seed=4, max_rounds=5)
        assert not reference.completed and not columnar.completed
        assert reference.messages_per_round == columnar.messages_per_round
        ref_spanner = reference_distributed_spanner(graph, seed=4, max_rounds=5)
        col_spanner = distributed_baswana_sen_spanner(graph, seed=4, max_rounds=5)
        assert np.array_equal(ref_spanner.edge_indices, col_spanner.edge_indices)
        assert ref_spanner.cost == col_spanner.cost


class TestGoldens:
    """Both engines must reproduce the frozen reference outputs."""

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    @pytest.mark.parametrize("case_index", range(6))
    def test_engine_matches_golden(self, goldens, golden_cases, engine, case_index):
        name, graph, seed, k = golden_cases[case_index]
        golden = goldens[name]
        assert golden["num_vertices"] == graph.num_vertices
        assert golden["num_edges"] == graph.num_edges
        result = ENGINES[engine](graph, k=k, seed=seed)
        assert result.edge_indices.tolist() == golden["edge_indices"], name
        assert result.cost.rounds == golden["rounds"]
        assert result.cost.messages == golden["messages"]
        assert result.cost.max_message_words == golden["max_message_words"]
        assert result.completed == golden["completed"]


class TestBundleAndPipelineParity:
    """The t-bundle peel and the sparsifier pipeline match the per-node engine."""

    def test_bundle_parity(self):
        graph = gen.barabasi_albert_graph(90, 4, seed=2).coalesce()
        expected = PER_NODE_OUTPUTS["bundle"]
        columnar = distributed_bundle_spanner(graph, t=3, seed=8)
        assert digest(columnar.edge_indices) == expected["edges"]
        assert columnar.edge_indices.size == expected["num_edges"]
        assert [digest(c) for c in columnar.component_edge_indices] == expected["components"]
        assert cost_triple(columnar.cost) == expected["cost"]
        assert columnar.components_built == 3
        # The live reference peels through the same loop and agrees.
        reference = reference_distributed_bundle_spanner(graph, t=3, seed=8)
        assert np.array_equal(reference.edge_indices, columnar.edge_indices)
        assert reference.cost == columnar.cost

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_parallel_sample_parity(self, num_shards):
        graph = gen.banded_graph(72, 6)
        config = SparsifierConfig.practical(bundle_t=2, num_shards=num_shards)
        result = distributed_parallel_sample(graph, epsilon=0.5, config=config, seed=9)
        expected = PER_NODE_OUTPUTS[f"sample-{num_shards}"]
        assert digest(result.bundle_edge_indices) == expected["bundle"]
        assert digest(result.sampled_edge_indices) == expected["sampled"]
        sparsifier = result.sparsifier
        assert digest(sparsifier.edge_u, sparsifier.edge_v, sparsifier.edge_weights) == (
            expected["sparsifier"]
        )
        assert cost_triple(result.cost) == expected["cost"]

    def test_parallel_sparsify_parity(self):
        graph = gen.erdos_renyi_graph(70, 0.2, seed=6, ensure_connected=True)
        config = SparsifierConfig.practical(bundle_t=2)
        result = distributed_parallel_sparsify(graph, epsilon=0.5, rho=4.0, config=config, seed=3)
        expected = PER_NODE_OUTPUTS["sparsify"]
        sparsifier = result.sparsifier
        assert digest(sparsifier.edge_u, sparsifier.edge_v, sparsifier.edge_weights) == (
            expected["sparsifier"]
        )
        assert result.output_edges == expected["output_edges"]
        assert cost_triple(result.cost) == expected["cost"]


def _limit_outcome(graph: Graph, seed: int, limit: int, engine: str):
    """None if the run completes under ``limit``, else the failing round."""
    simple = graph.coalesce()
    n = simple.num_vertices
    k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    cap = len(build_schedule(k)) + 4
    if engine == "reference":
        simulator = DistributedSimulator(simple, seed=seed, message_word_limit=limit)
        program = _BaswanaSenProgram(n, k)
    else:
        simulator = ColumnarSimulator(simple, seed=seed, message_word_limit=limit)
        program = ColumnarBaswanaSenProgram(n, k)
    try:
        simulator.run(program, max_rounds=cap)
        return None
    except MessageTooLargeError as exc:
        match = re.search(r"in round (\d+)", str(exc))
        assert match, f"unparseable message: {exc}"
        return int(match.group(1))


class TestWordLimitProperty:
    """The O(log n) word budget triggers identically in both engines.

    The protocol's flood tuples weigh 3 words and removal notices 1, so
    sweeping the limit across that boundary must flip both engines from
    completing to raising — in the same round.
    """

    @pytest.mark.parametrize("limit", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "make_graph,seed",
        [
            (lambda: gen.banded_graph(40, 4), 0),
            (lambda: gen.grid_graph(6, 6), 1),
            (lambda: gen.barabasi_albert_graph(40, 3, seed=4), 2),
        ],
    )
    def test_limit_trigger_parity(self, make_graph, seed, limit):
        graph = make_graph()
        reference = _limit_outcome(graph, seed, limit, "reference")
        columnar = _limit_outcome(graph, seed, limit, "columnar")
        assert reference == columnar
        if limit < 3:
            # Flood tuples (3 words) violate the budget in the very first round.
            assert reference == 1
        else:
            assert reference is None


class _ColumnarEcho(ColumnarProgram):
    """Every node broadcasts once; round 2 collects what was heard."""

    def round(self, net, round_number, inbox):
        if round_number == 1:
            nodes = np.arange(net.num_vertices, dtype=np.int64)
            return net.broadcast_block(nodes, 1, tag=np.zeros(net.num_vertices, np.int64)), False
        self.heard = np.sort(inbox.src)
        return None, True

    def finalize(self, net):
        return getattr(self, "heard", np.empty(0, dtype=np.int64))


class _ColumnarRogue(ColumnarProgram):
    """Attempts to message a non-neighbour on a cycle."""

    def round(self, net, round_number, inbox):
        block = MessageBlock(
            src=np.array([0]), dst=np.array([2]), words=np.array([1])
        )
        return block, True


class _ColumnarChatty(ColumnarProgram):
    """Sends one over-long message."""

    def round(self, net, round_number, inbox):
        block = MessageBlock(
            src=np.array([0]), dst=np.array([1]), words=np.array([10_000])
        )
        return block, True


class TestColumnarEngine:
    """Unit behaviour of the engine itself, mirroring the reference tests."""

    def test_echo_counts_match_reference_model(self):
        g = gen.cycle_graph(5)
        result = ColumnarSimulator(g, seed=0).run(_ColumnarEcho())
        assert result.completed
        assert result.cost.rounds == 2
        assert result.cost.messages == 10  # 5 nodes x 2 neighbours
        assert result.cost.max_message_words == 1
        assert result.messages_per_round == [10, 0]
        # Each node heard each neighbour once.
        assert np.array_equal(np.bincount(result.outputs, minlength=5), np.full(5, 2))

    def test_non_neighbour_send_rejected(self):
        with pytest.raises(SimulationError):
            ColumnarSimulator(gen.cycle_graph(4), seed=0).run(_ColumnarRogue())

    def test_word_limit_enforced(self):
        with pytest.raises(MessageTooLargeError):
            ColumnarSimulator(gen.cycle_graph(4), seed=0).run(_ColumnarChatty())

    def test_empty_graph(self):
        result = ColumnarSimulator(Graph(0), seed=0).run(_ColumnarEcho())
        assert result.completed
        assert result.cost == ColumnarSimulator(Graph(0), seed=1).run(_ColumnarEcho()).cost
        assert result.rounds_executed == 0

    def test_counters_reset_between_runs(self):
        simulator = ColumnarSimulator(gen.cycle_graph(6), seed=0)
        first = simulator.run(_ColumnarEcho())
        second = simulator.run(_ColumnarEcho())
        assert first.cost == second.cost
        assert first.messages_per_round == second.messages_per_round

    def test_message_block_validates_lengths(self):
        with pytest.raises(SimulationError):
            MessageBlock(src=np.array([0, 1]), dst=np.array([1]), words=np.array([1, 1]))
        with pytest.raises(SimulationError):
            MessageBlock(
                src=np.array([0]),
                dst=np.array([1]),
                words=np.array([1]),
                columns={"tag": np.array([0, 1])},
            )

    def test_receiver_slots_roundtrip(self):
        g = gen.grid_graph(4, 4)
        net = ColumnarSimulator(g, seed=0)
        # For every incidence slot (owner -> neighbour), the reverse lookup
        # must land on the slot owned by the neighbour pointing back.
        slots = net.receiver_slots(src=net.slot_owner, dst=net.adj)
        assert np.array_equal(net.slot_owner[slots], net.adj)
        assert np.array_equal(net.adj[slots], net.slot_owner)
        with pytest.raises(SimulationError):
            net.receiver_slots(src=np.array([0]), dst=np.array([15]))

    def test_concat_ranges(self):
        starts = np.array([5, 0, 9, 9])
        counts = np.array([3, 0, 2, 1])
        assert concat_ranges(starts, counts).tolist() == [5, 6, 7, 9, 10, 9]
        assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_node_rngs_match_reference_spawn(self):
        """Same seed normalisation: per-node streams agree across engines."""
        g = gen.cycle_graph(6)
        reference = DistributedSimulator(g, seed=5)
        columnar = ColumnarSimulator(g, seed=5)
        ref_draws = [ctx.rng.random() for ctx in reference.contexts]
        col_draws = [rng.random() for rng in columnar.node_rngs]
        assert ref_draws == col_draws
