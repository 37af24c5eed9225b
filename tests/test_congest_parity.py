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
  select that engine).

The bundle peel runs each component on the previous component's network
restricted to the remaining edges; ``TestNetworkRestriction`` pins a
restricted network to one built fresh on the same edges, array for array.
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
from repro.exceptions import GraphError, MessageTooLargeError, SimulationError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.parallel.congest import (
    BroadcastBlock,
    ColumnarProgram,
    ColumnarSimulator,
    MessageBlock,
    concat_ranges,
)
from repro.spanners import baswana_sen as baswana_sen_module
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


@pytest.fixture
def histograms(monkeypatch):
    """The ``messages_per_round`` of every run of either engine, in run order."""
    recorded = {"reference": [], "columnar": []}
    for engine, simulator in (("reference", DistributedSimulator), ("columnar", ColumnarSimulator)):
        def run(self, *args, _run=simulator.run, _log=recorded[engine], **kwargs):
            result = _run(self, *args, **kwargs)
            _log.append(result.messages_per_round)
            return result

        monkeypatch.setattr(simulator, "run", run)
    return recorded


def _weights_one_or_two(seed):
    graph = gen.erdos_renyi_graph(60, 0.25, seed=seed, ensure_connected=True)
    return graph.with_weights(np.random.default_rng(seed).integers(1, 3, graph.num_edges))


# (input, k, protocol seed).  Weights in {1, 2} make equally near sampled
# clusters common; the unit-weight ER n=150, p=0.5 input (m/(n log2 n)
# ~5.2) ties every length and floods over nearly every port, the regime
# of the e2ebench dense-er side graph.
EQUAL_LENGTH_CASES = [
    pytest.param(lambda seed=seed: _weights_one_or_two(seed), 3, seed, id=str(seed))
    for seed in range(3)
] + [
    pytest.param(
        lambda: gen.erdos_renyi_graph(150, 0.5, seed=1, ensure_connected=True),
        4,
        seed,
        id=f"dense-er150-seed{seed}",
    )
    for seed in (1, 2)
]


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

    @pytest.mark.parametrize("make_graph,k,seed", EQUAL_LENGTH_CASES)
    def test_equal_length_clusters_parity(self, histograms, make_graph, k, seed):
        """Equal lengths make equally near sampled clusters common, and a
        cluster's first port need not be its lightest: the case-(b) target
        is the one first met in slot order, as the reference finds."""
        graph = make_graph()
        reference = reference_distributed_spanner(graph, k=k, seed=seed)
        columnar = distributed_baswana_sen_spanner(graph, k=k, seed=seed)
        assert np.array_equal(reference.edge_indices, columnar.edge_indices)
        assert reference.cost == columnar.cost
        ref_bundle = reference_distributed_bundle_spanner(graph, t=3, k=k, seed=seed)
        col_bundle = distributed_bundle_spanner(graph, t=3, k=k, seed=seed)
        assert np.array_equal(ref_bundle.edge_indices, col_bundle.edge_indices)
        assert ref_bundle.cost == col_bundle.cost
        # One spanner run and one run per bundle component, round by round.
        assert len(histograms["columnar"]) == 1 + col_bundle.components_built
        assert histograms["reference"] == histograms["columnar"]

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

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_round_cap_below_one_rejected(self, engine, max_rounds):
        with pytest.raises(GraphError, match="max_rounds"):
            ENGINES[engine](gen.grid_graph(6, 6), seed=0, max_rounds=max_rounds)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("max_rounds", [2.5, True])
    def test_non_integer_round_cap_rejected(self, engine, max_rounds):
        # Truncating would run 3 rounds (2.5) or 1 round (True) and return
        # a cut-short spanner with completed=False.
        with pytest.raises(GraphError, match="max_rounds must be an integer"):
            ENGINES[engine](gen.grid_graph(6, 6), seed=1, max_rounds=max_rounds)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_numpy_integer_round_cap_accepted(self, engine):
        graph = gen.grid_graph(6, 6)
        capped = ENGINES[engine](graph, seed=1, max_rounds=np.int64(3))
        plain = ENGINES[engine](graph, seed=1, max_rounds=3)
        assert capped.cost == plain.cost and not capped.completed
        assert np.array_equal(capped.edge_indices, plain.edge_indices)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, engine, k):
        with pytest.raises(GraphError, match="k must be >= 1"):
            ENGINES[engine](gen.grid_graph(6, 6), k=k, seed=0)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_must_be_an_integer(self, engine, k):
        with pytest.raises(GraphError, match="k must be an integer"):
            ENGINES[engine](gen.grid_graph(6, 6), k=k, seed=0)

    def test_numpy_integer_k_accepted(self):
        graph = gen.grid_graph(6, 6)
        result = distributed_baswana_sen_spanner(graph, k=np.int64(3), seed=0)
        expected = distributed_baswana_sen_spanner(graph, k=3, seed=0)
        assert result.k == 3 and type(result.k) is int
        assert np.array_equal(result.edge_indices, expected.edge_indices)


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

    def test_parallel_sample_parity(self):
        graph = gen.banded_graph(72, 6)
        config = SparsifierConfig.practical(bundle_t=2)
        result = distributed_parallel_sample(graph, epsilon=0.5, config=config, seed=9)
        expected = PER_NODE_OUTPUTS["sample-1"]
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


SIMULATORS = {"reference": DistributedSimulator, "columnar": ColumnarSimulator}


class TestWordCountValidation:
    """Word limits and block word counts are integers ``>= 1`` in both
    engines: ``3.9`` would run with limit 3 and ``True`` with limit 1, and
    a limit below 1 would fail at round 1 as if a flood tuple were
    oversized."""

    @pytest.mark.parametrize("engine", sorted(SIMULATORS))
    @pytest.mark.parametrize("limit", [3.9, True, 0, -5])
    def test_word_limit_must_be_a_positive_integer(self, engine, limit):
        with pytest.raises(SimulationError, match="message_word_limit must be"):
            SIMULATORS[engine](gen.grid_graph(6, 6), seed=0, message_word_limit=limit)

    @pytest.mark.parametrize("engine", sorted(SIMULATORS))
    def test_numpy_integer_word_limit_accepted(self, engine):
        simulator = SIMULATORS[engine](gen.grid_graph(6, 6), seed=0, message_word_limit=np.int64(3))
        assert simulator.message_word_limit == 3 and type(simulator.message_word_limit) is int

    @pytest.mark.parametrize("words", [2.7, True, 0, -1])
    def test_block_word_count_must_be_a_positive_integer(self, words):
        net = ColumnarSimulator(gen.grid_graph(6, 6), seed=0)
        with pytest.raises(SimulationError, match="message words must be"):
            net.broadcast_block(np.arange(3), words)
        with pytest.raises(SimulationError, match="message words must be"):
            MessageBlock(slot=np.array([0]), words=words)

    def test_numpy_integer_block_word_count_accepted(self):
        net = ColumnarSimulator(gen.grid_graph(6, 6), seed=0)
        assert net.broadcast_block(np.arange(3), np.int64(2)).words == 2
        assert MessageBlock(slot=np.array([0]), words=np.int64(2)).words == 2


class _ColumnarEcho(ColumnarProgram):
    """Every node broadcasts once; round 2 collects what was heard."""

    def round(self, net, round_number, inbox):
        if round_number == 1:
            nodes = np.arange(net.num_vertices, dtype=np.int64)
            return net.broadcast_block(nodes, 1, tag=np.zeros(net.num_vertices, np.int64)), False
        # A broadcast is held as its senders; its messages leave on every
        # slot of each sender's CSR range.
        senders = inbox.senders
        slots = concat_ranges(net.indptr[senders], net.degrees[senders])
        self.heard = np.sort(net.slot_owner[slots])
        return None, True

    def finalize(self, net):
        return getattr(self, "heard", np.empty(0, dtype=np.int64))


class _ColumnarRogue(ColumnarProgram):
    """Attempts to send on a slot the network does not have."""

    def round(self, net, round_number, inbox):
        block = MessageBlock(slot=np.array([net.adj.shape[0]]), words=1)
        return block, True


class _ColumnarChatty(ColumnarProgram):
    """Sends one over-long message."""

    def round(self, net, round_number, inbox):
        block = MessageBlock(slot=np.array([0]), words=10_000)
        return block, True


class _ColumnarBroadcaster(ColumnarProgram):
    """Broadcasts once from the given node ids, which may lie outside the network."""

    def __init__(self, *senders, words=1):
        self.senders = np.array(senders, dtype=np.int64)
        self.words = words

    def round(self, net, round_number, inbox):
        return net.broadcast_block(self.senders, self.words), True


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

    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_round_cap_below_one_rejected(self, max_rounds):
        with pytest.raises(SimulationError, match="max_rounds"):
            ColumnarSimulator(gen.cycle_graph(4), seed=0).run(_ColumnarEcho(), max_rounds=max_rounds)

    @pytest.mark.parametrize("max_rounds", [2.5, True])
    def test_non_integer_round_cap_rejected(self, max_rounds):
        with pytest.raises(SimulationError, match="max_rounds must be an integer"):
            ColumnarSimulator(gen.cycle_graph(4), seed=0).run(_ColumnarEcho(), max_rounds=max_rounds)

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
        # A broadcast carries one payload value per sender.
        with pytest.raises(SimulationError, match="'tag' has length 2, expected 1"):
            BroadcastBlock(senders=np.array([0]), words=1, columns={"tag": np.array([0, 1])})
        with pytest.raises(SimulationError, match="'tag' has length 1, expected 2"):
            BroadcastBlock(senders=np.array([0, 1]), words=1, columns={"tag": np.array([0])})

    @pytest.mark.parametrize("sender", [-3, -7, -1, 36])
    def test_broadcast_from_outside_the_network_rejected(self, sender):
        # grid_graph(6, 6) has nodes 0..35: a negative id must not wrap
        # around to a node at the end, nor an id past the end fail unnamed.
        with pytest.raises(SimulationError, match=rf"node {sender} broadcast in round 1, outside"):
            ColumnarSimulator(gen.grid_graph(6, 6), seed=0).run(_ColumnarBroadcaster(sender))

    def test_oversized_broadcast_names_a_sender_with_a_port(self):
        # Node 0 is isolated: its broadcast sends nothing, so it neither
        # trips the word limit nor is blamed for node 2's.
        graph = Graph(4, [1, 2], [2, 3])
        alone = ColumnarSimulator(graph, seed=0).run(_ColumnarBroadcaster(0, words=10_000))
        assert alone.messages_per_round == [0] and alone.cost.max_message_words == 0
        with pytest.raises(MessageTooLargeError, match="node 2 sent a 10000-word message"):
            ColumnarSimulator(graph, seed=0).run(_ColumnarBroadcaster(0, 2, words=10_000))

    def test_reverse_slot_roundtrip(self):
        g = gen.grid_graph(4, 4)
        net = ColumnarSimulator(g, seed=0)
        rev = net.reverse_slot
        # For every incidence slot (owner -> neighbour), the reverse slot
        # is the one owned by the neighbour pointing back, on the same edge.
        assert np.array_equal(rev[rev], np.arange(net.adj.shape[0]))
        assert np.array_equal(net.slot_owner[rev], net.adj)
        assert np.array_equal(net.adj[rev], net.slot_owner)
        assert np.array_equal(net.adj_edge_ids[rev], net.adj_edge_ids)

    def test_concat_ranges(self):
        starts = np.array([5, 0, 9, 9])
        counts = np.array([3, 0, 2, 1])
        assert concat_ranges(starts, counts).tolist() == [5, 6, 7, 9, 10, 9]
        assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_node_streams_match_reference_spawn(self):
        """Same seed normalisation: per-node streams agree across engines."""
        g = gen.cycle_graph(6)
        reference = DistributedSimulator(g, seed=5)
        columnar = ColumnarSimulator(g, seed=5)
        ref_draws = [ctx.rng.random() for ctx in reference.contexts]
        col_draws = columnar.node_streams.random(np.arange(g.num_vertices)).tolist()
        assert ref_draws == col_draws


def _restriction_inputs():
    """ER, banded, BA and grid inputs, plus a simple graph stored unsorted."""
    er = gen.erdos_renyi_graph(70, 0.15, seed=3, ensure_connected=True)
    return {
        "er": er,
        "banded": gen.banded_graph(80, 5, weight_range=(0.5, 2.0), seed=1),
        "ba": gen.barabasi_albert_graph(90, 4, seed=2),
        "grid": gen.grid_graph(7, 8),
        "unsorted": er.select_edges(np.random.default_rng(7).permutation(er.num_edges)),
    }


RESTRICTION_INPUTS = _restriction_inputs()


def assert_same_network(restricted, fresh, kept_edges):
    """``restricted`` equals ``fresh`` (built on ``kept_edges``, in order)."""
    assert restricted.num_vertices == fresh.num_vertices
    assert restricted.message_word_limit == fresh.message_word_limit
    for name in (
        "indptr", "degrees", "adj", "adj_weights", "slot_owner", "reverse_slot",
        "slot_rank", "slot_of_rank",
    ):
        got, want = getattr(restricted, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    # Edge ids keep naming the edges of the graph the first network was
    # built on; the fresh network numbers its own.
    assert np.array_equal(restricted.adj_edge_ids, kept_edges[fresh.adj_edge_ids])


class TestNetworkRestriction:
    """``ColumnarSimulator.restrict`` equals a fresh build on the kept edges."""

    @pytest.mark.parametrize("name", sorted(RESTRICTION_INPUTS))
    @pytest.mark.parametrize("keep_share", [0.0, 0.3, 0.8, 1.0])
    def test_restrict_matches_fresh_build(self, name, keep_share):
        graph = RESTRICTION_INPUTS[name]
        # The bundle's network is built on the coalesced graph; the
        # equality holds for a network on any edge order too.
        for base in (graph.coalesce(), graph):
            mask = np.random.default_rng(11).random(base.num_edges) < keep_share
            restricted = ColumnarSimulator(base, seed=0).restrict(mask, seed=4)
            fresh = ColumnarSimulator(base.select_edges(mask), seed=4)
            assert_same_network(restricted, fresh, np.flatnonzero(mask))
            assert restricted.graph is base
            nodes = np.arange(base.num_vertices)
            assert np.array_equal(
                restricted.node_streams.random(nodes), fresh.node_streams.random(nodes)
            )

    @pytest.mark.parametrize("name", sorted(RESTRICTION_INPUTS))
    def test_chained_restrictions(self, name):
        simple = RESTRICTION_INPUTS[name].coalesce()
        rng = np.random.default_rng(5)
        net = ColumnarSimulator(simple, seed=0)
        kept = np.ones(simple.num_edges, dtype=bool)
        for _ in range(4):
            # Masks need not nest: a restriction keeps only edges still present.
            mask = rng.random(simple.num_edges) < 0.75
            net = net.restrict(mask, seed=1)
            kept &= mask
            fresh = ColumnarSimulator(simple.select_edges(kept), seed=1)
            assert_same_network(net, fresh, np.flatnonzero(kept))

    @pytest.mark.parametrize("name", sorted(RESTRICTION_INPUTS))
    def test_protocol_runs_identically(self, name):
        simple = RESTRICTION_INPUTS[name].coalesce()
        mask = np.random.default_rng(9).random(simple.num_edges) < 0.6
        k = 4
        cap = len(build_schedule(k)) + 4
        restricted = ColumnarSimulator(simple, seed=0).restrict(mask, seed=6)
        fresh = ColumnarSimulator(simple.select_edges(mask), seed=6)
        got = restricted.run(ColumnarBaswanaSenProgram(simple.num_vertices, k), max_rounds=cap)
        want = fresh.run(ColumnarBaswanaSenProgram(simple.num_vertices, k), max_rounds=cap)
        assert np.array_equal(got.outputs, np.flatnonzero(mask)[want.outputs])
        assert got.cost == want.cost
        assert got.messages_per_round == want.messages_per_round

    def test_restrict_rejects_a_mask_of_the_wrong_length(self):
        net = ColumnarSimulator(gen.cycle_graph(5), seed=0)
        with pytest.raises(SimulationError, match="edge mask"):
            net.restrict(np.ones(4, dtype=bool))


class TestLexsortBranch:
    """Past the packed-key bit budget the decide step sorts the same
    (owner, centre, rank) triples with ``np.lexsort``: same outputs."""

    @pytest.fixture
    def lexsort_only(self, monkeypatch):
        monkeypatch.setattr(baswana_sen_module, "_KEY_BITS", 0)
        assert not baswana_sen_module._KeyLayout(10, 100).packed

    @pytest.mark.parametrize("case_index", range(6))
    def test_goldens(self, lexsort_only, goldens, golden_cases, case_index):
        name, graph, seed, k = golden_cases[case_index]
        golden = goldens[name]
        result = distributed_baswana_sen_spanner(graph, k=k, seed=seed)
        assert result.edge_indices.tolist() == golden["edge_indices"], name
        assert result.cost.rounds == golden["rounds"]
        assert result.cost.messages == golden["messages"]
        assert result.cost.max_message_words == golden["max_message_words"]
        assert result.completed == golden["completed"]

    def test_bundle(self, lexsort_only):
        graph = gen.barabasi_albert_graph(90, 4, seed=2).coalesce()
        expected = PER_NODE_OUTPUTS["bundle"]
        columnar = distributed_bundle_spanner(graph, t=3, seed=8)
        assert digest(columnar.edge_indices) == expected["edges"]
        assert [digest(c) for c in columnar.component_edge_indices] == expected["components"]
        assert cost_triple(columnar.cost) == expected["cost"]
