"""Tests for the per-node reference simulator and the distributed spanner."""

import numpy as np
import pytest

from repro.exceptions import MessageTooLargeError, SimulationError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.spanners._reference import (
    DistributedSimulator,
    NodeProgram,
    payload_words,
)
from repro.spanners.distributed_spanner import distributed_baswana_sen_spanner
from repro.spanners.verification import max_stretch_of_nonspanner_edges


class EchoProgram(NodeProgram):
    """Each node sends its id to all neighbours once, then collects what it hears."""

    def step(self, ctx, round_number, inbox):
        if round_number == 1:
            ctx.broadcast(ctx.node_id)
            return False
        ctx.state["heard"] = sorted(msg.payload for msg in inbox)
        return True

    def finalize(self, ctx):
        return ctx.state.get("heard", [])


class FloodMinProgram(NodeProgram):
    """Classic flood-min: all nodes converge to the minimum vertex id.

    Nodes run for a fixed number of rounds (an upper bound on the diameter)
    because a node that terminated early could not learn of later updates —
    termination detection is itself a non-trivial distributed problem.
    """

    def __init__(self, num_rounds: int):
        self.num_rounds = num_rounds

    def initialize(self, ctx):
        ctx.state["min"] = ctx.node_id
        ctx.state["changed"] = True

    def step(self, ctx, round_number, inbox):
        for msg in inbox:
            if msg.payload < ctx.state["min"]:
                ctx.state["min"] = msg.payload
                ctx.state["changed"] = True
        if ctx.state["changed"]:
            ctx.broadcast(ctx.state["min"])
            ctx.state["changed"] = False
        return round_number >= self.num_rounds

    def finalize(self, ctx):
        return ctx.state["min"]


class ChattyProgram(NodeProgram):
    """Sends an over-long message to trigger the size check."""

    def step(self, ctx, round_number, inbox):
        if ctx.neighbors.shape[0]:
            ctx.send(int(ctx.neighbors[0]), list(range(10_000)))
        return True


class RogueProgram(NodeProgram):
    """Attempts to message a non-neighbour."""

    def step(self, ctx, round_number, inbox):
        target = (ctx.node_id + 2) % 4
        ctx.send(target, "hi")
        return True


class TestPayloadWords:
    def test_scalars(self):
        assert payload_words(3) == 1
        assert payload_words(2.5) == 1
        assert payload_words(None) == 1
        assert payload_words(True) == 1

    def test_containers(self):
        assert payload_words((1, 2, 3)) == 3
        assert payload_words([1, [2, 3]]) == 3
        assert payload_words({"a": 1}) >= 2

    def test_strings_and_arrays(self):
        assert payload_words("abcdefgh") == 1
        assert payload_words("x" * 80) == 10
        assert payload_words(np.zeros(7)) == 7

    def test_unknown_object(self):
        class Thing:
            pass

        assert payload_words(Thing()) == 8


class TestSimulator:
    def test_echo_program_delivers_neighbour_ids(self):
        g = gen.cycle_graph(6)
        sim = DistributedSimulator(g, seed=0)
        result = sim.run(EchoProgram())
        assert result.completed
        for node, heard in result.outputs.items():
            neighbours = np.concatenate([g.edge_v[g.edge_u == node], g.edge_u[g.edge_v == node]])
            expected = sorted(int(x) for x in np.unique(neighbours))
            assert heard == expected

    def test_flood_min_converges(self):
        g = gen.erdos_renyi_graph(40, 0.1, seed=1, ensure_connected=True)
        sim = DistributedSimulator(g, seed=0)
        result = sim.run(FloodMinProgram(num_rounds=45))
        assert result.completed
        assert all(value == 0 for value in result.outputs.values())

    def test_flood_min_message_efficiency(self):
        """Nodes only broadcast when their value changes, so messages stay O(n * diameter-ish)."""
        g = gen.path_graph(20)
        sim = DistributedSimulator(g, seed=0)
        result = sim.run(FloodMinProgram(num_rounds=25))
        assert result.completed
        assert all(value == 0 for value in result.outputs.values())
        assert result.cost.messages <= 20 * 25

    def test_cost_counters(self):
        g = gen.cycle_graph(5)
        sim = DistributedSimulator(g, seed=0)
        result = sim.run(EchoProgram())
        assert result.cost.rounds == result.rounds_executed
        assert result.cost.messages == 10  # each of 5 nodes broadcasts to 2 neighbours
        assert result.cost.max_message_words >= 1
        assert sum(result.messages_per_round) == result.cost.messages

    def test_message_size_limit_enforced(self):
        g = gen.cycle_graph(4)
        sim = DistributedSimulator(g, seed=0)
        with pytest.raises(MessageTooLargeError):
            sim.run(ChattyProgram())

    def test_send_to_non_neighbour_rejected(self):
        g = gen.cycle_graph(4)
        sim = DistributedSimulator(g, seed=0)
        with pytest.raises(SimulationError):
            sim.run(RogueProgram())

    def test_max_rounds_cap(self):
        class NeverDone(NodeProgram):
            def step(self, ctx, round_number, inbox):
                return False

        g = gen.cycle_graph(4)
        sim = DistributedSimulator(g, seed=0)
        result = sim.run(NeverDone(), max_rounds=7)
        assert not result.completed
        assert result.rounds_executed == 7

    def test_empty_graph(self):
        sim = DistributedSimulator(Graph(0), seed=0)
        result = sim.run(EchoProgram())
        assert result.completed
        assert result.outputs == {}

    def test_second_run_does_not_accumulate_counters(self):
        """run() resets per-run state: cost reflects the latest run only.

        Previously a second run() on one simulator kept accumulating
        ``_total_messages`` / ``_messages_per_round`` while ``_rounds``
        restarted, so ``cost`` mixed runs.
        """
        g = gen.cycle_graph(5)
        sim = DistributedSimulator(g, seed=0)
        first = sim.run(EchoProgram())
        second = sim.run(EchoProgram())
        assert second.cost == first.cost
        assert second.cost.messages == 10
        assert second.messages_per_round == first.messages_per_round
        assert len(second.messages_per_round) == second.rounds_executed
        # The simulator's own cost property agrees with the last result.
        assert sim.cost == second.cost

    def test_per_node_rngs_are_reproducible(self):
        g = gen.cycle_graph(6)

        class RandomDraw(NodeProgram):
            def step(self, ctx, round_number, inbox):
                ctx.state["value"] = float(ctx.rng.random())
                return True

            def finalize(self, ctx):
                return ctx.state["value"]

        r1 = DistributedSimulator(g, seed=5).run(RandomDraw()).outputs
        r2 = DistributedSimulator(g, seed=5).run(RandomDraw()).outputs
        assert r1 == r2
        # Nodes have distinct streams.
        assert len(set(r1.values())) > 1


class TestDistributedSpanner:
    def test_stretch_guarantee(self, medium_er_graph):
        result = distributed_baswana_sen_spanner(medium_er_graph, seed=3)
        assert result.completed
        max_stretch, _ = max_stretch_of_nonspanner_edges(
            result.simple_graph, result.edge_indices
        )
        assert max_stretch <= result.stretch_target + 1e-9

    def test_stretch_guarantee_weighted(self, weighted_er_graph):
        result = distributed_baswana_sen_spanner(weighted_er_graph, seed=4)
        max_stretch, _ = max_stretch_of_nonspanner_edges(
            result.simple_graph, result.edge_indices
        )
        assert max_stretch <= result.stretch_target + 1e-9

    def test_round_complexity_polylog(self):
        """Rounds follow the schedule: O(k^2) = O(log^2 n), independent of m."""
        sparse = gen.erdos_renyi_graph(100, 0.05, seed=0, ensure_connected=True)
        dense = gen.erdos_renyi_graph(100, 0.5, seed=0, ensure_connected=True)
        r_sparse = distributed_baswana_sen_spanner(sparse, seed=1)
        r_dense = distributed_baswana_sen_spanner(dense, seed=1)
        assert r_sparse.cost.rounds == r_dense.cost.rounds
        k = r_sparse.k
        assert r_sparse.cost.rounds <= (k + 2) * (k + 2)

    def test_message_size_logarithmic(self, medium_er_graph):
        result = distributed_baswana_sen_spanner(medium_er_graph, seed=5)
        limit = 4 * int(np.ceil(np.log2(medium_er_graph.num_vertices))) + 16
        assert result.cost.max_message_words <= limit

    def test_message_count_scales_with_m(self):
        sparse = gen.erdos_renyi_graph(80, 0.05, seed=2, ensure_connected=True)
        dense = gen.erdos_renyi_graph(80, 0.4, seed=2, ensure_connected=True)
        msgs_sparse = distributed_baswana_sen_spanner(sparse, seed=3).cost.messages
        msgs_dense = distributed_baswana_sen_spanner(dense, seed=3).cost.messages
        assert msgs_dense > msgs_sparse

    def test_spanner_size_comparable_to_sequential(self, medium_er_graph):
        from repro.spanners.baswana_sen import baswana_sen_spanner

        dist = distributed_baswana_sen_spanner(medium_er_graph, seed=6)
        seq = baswana_sen_spanner(medium_er_graph, seed=6)
        n = medium_er_graph.num_vertices
        budget = 6.0 * n * np.log2(n)
        assert dist.spanner.num_edges <= budget
        # Same asymptotic class: within a small factor of the sequential output.
        assert dist.spanner.num_edges <= 3 * seq.spanner.num_edges + n

    def test_multigraph_input_coalesced(self, triangle_graph):
        doubled = triangle_graph + triangle_graph
        result = distributed_baswana_sen_spanner(doubled, seed=0)
        assert result.simple_graph.num_edges == 3

    def test_path_graph_spanner_is_whole_path(self):
        path = gen.path_graph(16)
        result = distributed_baswana_sen_spanner(path, seed=0)
        # A tree has no redundant edges: the spanner must keep every edge.
        assert result.spanner.num_edges == path.num_edges
