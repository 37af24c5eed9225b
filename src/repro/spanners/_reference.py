"""Reference implementations the optimized kernels are pinned against.

This module preserves, verbatim, the seed code that later kernels
replaced, off the hot path and outside the package's exports:

* ``reference_baswana_sen_spanner`` — the per-vertex Python loop over
  group boundaries (one interpreted iteration per (vertex, cluster)
  group) and the ``np.isin``-based covered-edge removal that the
  vectorized :mod:`repro.spanners.baswana_sen` replaced;
* ``reference_t_bundle_spanner`` — the peel loop that rebuilt and
  re-validated a full :class:`Graph` every round, replaced by the
  zero-copy peeling in :mod:`repro.spanners.bundle`;
* :class:`DistributedSimulator` with its :class:`NodeProgram` /
  :class:`NodeContext` / :class:`Message` model, and the per-node
  Baswana–Sen program ``_BaswanaSenProgram`` — the object-at-a-time
  CONGEST simulator that the columnar engine
  (:mod:`repro.parallel.congest` running
  :class:`~repro.spanners.congest_spanner.ColumnarBaswanaSenProgram`)
  replaced, driven by ``reference_distributed_spanner`` /
  ``reference_distributed_bundle_spanner``.

It exists for two reasons:

1. the golden and parity tests (``tests/test_spanner_golden.py``,
   ``tests/test_congest_parity.py``) assert that the optimized
   implementations select *bit-identical* edge sets and cost triples,
   and ``tests/golden/generate_congest_goldens.py`` derives the frozen
   CONGEST goldens from the per-node simulator;
2. ``benchmarks/bench_spanner.py`` and ``benchmarks/bench_distributed.py``
   time reference-vs-optimized on one checkout so the speedup numbers in
   ``BENCH_spanner.json`` / ``BENCH_distributed.json`` are reproducible.

Do not optimize this module; its slowness is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, MessageTooLargeError, SimulationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import DistributedCost
from repro.parallel.pram import PRAMTracker
from repro.spanners.baswana_sen import SpannerResult
from repro.spanners.bundle import BundleResult
from repro.spanners.congest_spanner import build_schedule
from repro.spanners.distributed_spanner import (
    DistributedBundleResult,
    DistributedSpannerResult,
    _peel_bundle,
    _protocol_inputs,
    _spanner_result,
)
from repro.utils.rng import RandomState, SeedLike, as_rng, spawn_rngs, split_rng

__all__ = [
    "DistributedSimulator",
    "Message",
    "NodeContext",
    "NodeProgram",
    "SimulationResult",
    "payload_words",
    "reference_baswana_sen_spanner",
    "reference_distributed_bundle_spanner",
    "reference_distributed_spanner",
    "reference_t_bundle_spanner",
]


def _lightest_per_group(
    group_a: np.ndarray, group_b: np.ndarray, lengths: np.ndarray, payload: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each (a, b) group return the row of minimum length."""
    if group_a.size == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([]), empty
    order = np.lexsort((lengths, group_b, group_a))
    a_sorted = group_a[order]
    b_sorted = group_b[order]
    first = np.concatenate(
        [[True], (a_sorted[1:] != a_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])]
    )
    sel = order[first]
    return group_a[sel], group_b[sel], lengths[sel], payload[sel]


def reference_baswana_sen_spanner(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
) -> SpannerResult:
    """Seed implementation of :func:`repro.spanners.baswana_sen.baswana_sen_spanner`."""
    n = graph.num_vertices
    m = graph.num_edges
    if k is None:
        k = max(1, int(np.ceil(np.log2(max(n, 2)))))
    if k < 1:
        raise GraphError(f"spanner parameter k must be >= 1, got {k}")
    rng = as_rng(seed)
    tracker = tracker if tracker is not None else PRAMTracker()

    if m == 0 or n <= 1:
        return SpannerResult(
            spanner=Graph(n),
            edge_indices=np.array([], dtype=np.int64),
            stretch_target=float(2 * k - 1),
            k=k,
            cost=tracker.total,
        )

    edge_u = graph.edge_u.copy()
    edge_v = graph.edge_v.copy()
    lengths = 1.0 / graph.edge_weights  # resistive metric
    edge_idx = np.arange(m, dtype=np.int64)

    cluster = np.arange(n, dtype=np.int64)
    sample_probability = float(n) ** (-1.0 / k) if n > 1 else 1.0

    chosen: List[np.ndarray] = []

    for _iteration in range(k - 1):
        if edge_idx.size == 0:
            break
        active_centers = np.unique(cluster[cluster >= 0])
        sampled_flags = rng.random(active_centers.shape[0]) < sample_probability
        center_sampled = np.zeros(n, dtype=bool)
        center_sampled[active_centers[sampled_flags]] = True
        tracker.charge_parallel_for(active_centers.shape[0], label="spanner/sample-clusters")
        tracker.charge_parallel_for(n, label="spanner/propagate-sampling")

        in_sampled = np.zeros(n, dtype=bool)
        clustered = cluster >= 0
        in_sampled[clustered] = center_sampled[cluster[clustered]]

        du = np.concatenate([edge_u, edge_v])
        dv = np.concatenate([edge_v, edge_u])
        dlen = np.concatenate([lengths, lengths])
        didx = np.concatenate([edge_idx, edge_idx])
        head_cluster = cluster[dv]
        valid = head_cluster >= 0
        du, dv, dlen, didx, head_cluster = (
            du[valid], dv[valid], dlen[valid], didx[valid], head_cluster[valid]
        )
        acting = ~in_sampled[du]
        du, dv, dlen, didx, head_cluster = (
            du[acting], dv[acting], dlen[acting], didx[acting], head_cluster[acting]
        )
        tracker.charge_parallel_for(2 * edge_idx.size, label="spanner/scan-edges")

        if du.size == 0:
            cluster = np.where(in_sampled, cluster, -1)
            continue

        grp_v, grp_c, grp_len, grp_edge = _lightest_per_group(du, head_cluster, dlen, didx)
        tracker.charge_reduction(du.size, label="spanner/group-min")

        new_cluster = np.where(in_sampled, cluster, -1)
        removal_pairs_v: List[np.ndarray] = []
        removal_pairs_c: List[np.ndarray] = []
        iteration_edges: List[np.ndarray] = []

        boundaries = np.concatenate(
            [[0], np.flatnonzero(grp_v[1:] != grp_v[:-1]) + 1, [grp_v.size]]
        )
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            vertex = int(grp_v[start])
            clusters_here = grp_c[start:stop]
            lens_here = grp_len[start:stop]
            edges_here = grp_edge[start:stop]
            sampled_mask = center_sampled[clusters_here]
            if not sampled_mask.any():
                iteration_edges.append(edges_here)
                removal_pairs_v.append(np.full(clusters_here.shape[0], vertex, dtype=np.int64))
                removal_pairs_c.append(clusters_here)
                new_cluster[vertex] = -1
            else:
                sampled_positions = np.flatnonzero(sampled_mask)
                best_pos = sampled_positions[np.argmin(lens_here[sampled_positions])]
                best_len = lens_here[best_pos]
                target_center = int(clusters_here[best_pos])
                new_cluster[vertex] = target_center
                lighter = lens_here < best_len
                keep_positions = np.flatnonzero(lighter)
                keep_positions = np.concatenate([keep_positions, [best_pos]])
                iteration_edges.append(edges_here[keep_positions])
                drop_clusters = np.concatenate([clusters_here[lighter], [target_center]])
                removal_pairs_v.append(np.full(drop_clusters.shape[0], vertex, dtype=np.int64))
                removal_pairs_c.append(drop_clusters.astype(np.int64))
        tracker.charge_reduction(grp_v.size, label="spanner/vertex-decisions")

        if iteration_edges:
            chosen.append(np.concatenate(iteration_edges))

        if removal_pairs_v:
            rem_v = np.concatenate(removal_pairs_v)
            rem_c = np.concatenate(removal_pairs_c)
            removal_keys = np.unique(rem_v * np.int64(n) + rem_c)
        else:
            removal_keys = np.array([], dtype=np.int64)

        old_cluster_u = cluster[edge_u]
        old_cluster_v = cluster[edge_v]
        key_uv = np.where(
            old_cluster_v >= 0, edge_u * np.int64(n) + old_cluster_v, np.int64(-1)
        )
        key_vu = np.where(
            old_cluster_u >= 0, edge_v * np.int64(n) + old_cluster_u, np.int64(-1)
        )
        removed = np.isin(key_uv, removal_keys) | np.isin(key_vu, removal_keys)
        same_new_cluster = (
            (new_cluster[edge_u] >= 0) & (new_cluster[edge_u] == new_cluster[edge_v])
        )
        keep = ~(removed | same_new_cluster)
        tracker.charge_parallel_for(edge_idx.size, label="spanner/remove-covered")

        edge_u, edge_v, lengths, edge_idx = (
            edge_u[keep], edge_v[keep], lengths[keep], edge_idx[keep]
        )
        cluster = new_cluster

    if edge_idx.size:
        du = np.concatenate([edge_u, edge_v])
        dv = np.concatenate([edge_v, edge_u])
        dlen = np.concatenate([lengths, lengths])
        didx = np.concatenate([edge_idx, edge_idx])
        head_cluster = cluster[dv]
        valid = head_cluster >= 0
        du, dlen, didx, head_cluster = du[valid], dlen[valid], didx[valid], head_cluster[valid]
        if du.size:
            _, _, _, phase2_edges = _lightest_per_group(du, head_cluster, dlen, didx)
            chosen.append(phase2_edges)
        tracker.charge_reduction(max(du.size, 1), label="spanner/phase2")

    if chosen:
        selected = np.unique(np.concatenate(chosen))
    else:
        selected = np.array([], dtype=np.int64)

    spanner = graph.select_edges(selected)
    return SpannerResult(
        spanner=spanner,
        edge_indices=selected,
        stretch_target=float(2 * k - 1),
        k=k,
        cost=tracker.total,
    )


def reference_t_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
    tracker: Optional[PRAMTracker] = None,
    stop_when_exhausted: bool = True,
) -> BundleResult:
    """Seed implementation of :func:`repro.spanners.bundle.t_bundle_spanner`."""
    if t < 1:
        raise GraphError(f"bundle size t must be >= 1, got {t}")
    tracker = tracker if tracker is not None else PRAMTracker()
    rng = as_rng(seed)
    component_rngs = split_rng(rng, t)

    remaining = graph
    remaining_to_original = np.arange(graph.num_edges, dtype=np.int64)
    component_indices: List[np.ndarray] = []
    built = 0
    exhausted = False

    for i in range(t):
        if remaining.num_edges == 0:
            exhausted = True
            if stop_when_exhausted:
                break
            component_indices.append(np.array([], dtype=np.int64))
            built += 1
            continue
        result: SpannerResult = reference_baswana_sen_spanner(
            remaining, k=k, seed=component_rngs[i], tracker=tracker
        )
        original_ids = remaining_to_original[result.edge_indices]
        component_indices.append(np.sort(original_ids))
        built += 1
        keep_mask = np.ones(remaining.num_edges, dtype=bool)
        keep_mask[result.edge_indices] = False
        remaining = remaining.select_edges(keep_mask)
        remaining_to_original = remaining_to_original[keep_mask]
        tracker.charge_parallel_for(keep_mask.shape[0], label="bundle/peel-edges")

    if remaining.num_edges == 0:
        exhausted = True

    if component_indices:
        all_indices = np.unique(np.concatenate(component_indices))
    else:
        all_indices = np.array([], dtype=np.int64)
    bundle = graph.select_edges(all_indices)
    return BundleResult(
        bundle=bundle,
        edge_indices=all_indices,
        component_edge_indices=component_indices,
        t=built,
        requested_t=t,
        exhausted=exhausted,
        cost=tracker.total,
    )


# --------------------------------------------------------------------- #
# The per-node CONGEST simulator
# --------------------------------------------------------------------- #
#
# The paper's distributed results (Theorem 2, Corollary 3, Theorem 5) are
# stated in the synchronous model: computation proceeds in lock-step
# rounds; in each round every node may send one message to each
# neighbour; message length is restricted to O(log n) bits.  The
# simulator below measures the quantities the theorems bound — rounds,
# total messages, and the largest payload in "words", enforced against a
# budget so an algorithm silently exceeding the O(log n) restriction fails
# loudly.  Node programs subclass NodeProgram and interact only through
# the NodeContext handed to them, which restricts sends to graph
# neighbours.  Per-node RNG streams are split deterministically from the
# simulator seed, exactly as the columnar engine splits them.


@dataclass(frozen=True)
class Message:
    """A message delivered to a node at the start of a round.

    Attributes
    ----------
    sender:
        Vertex id of the sending node.
    payload:
        Arbitrary (but small) python object; its size in words is measured
        by :func:`payload_words`.
    """

    sender: int
    payload: Any


def payload_words(payload: Any) -> int:
    """Approximate size of a payload in machine words.

    Scalars count as one word, tuples/lists/dicts as the sum of their
    items, strings as ceil(len/8).  The point is not byte-exact accounting
    but catching algorithms that ship whole adjacency lists in one message,
    which would violate the O(log n)-bit CONGEST restriction.
    """
    if payload is None or isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return 1
    if isinstance(payload, str):
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (tuple, list)):
        return max(1, sum(payload_words(item) for item in payload))
    if isinstance(payload, dict):
        return max(1, sum(payload_words(k) + payload_words(v) for k, v in payload.items()))
    if isinstance(payload, np.ndarray):
        return max(1, int(payload.size))
    # Unknown object: charge conservatively.
    return 8


class NodeContext:
    """Per-node view of the network handed to node programs.

    Provides the node id, its neighbourhood (with weights), its private RNG
    stream, a local mutable state dict, and the ``send`` primitive.  Sends
    to non-neighbours raise — the model only allows communication along
    graph edges.
    """

    __slots__ = ("node_id", "neighbors", "edge_weights", "rng", "state", "_outbox", "_neighbor_set")

    def __init__(
        self,
        node_id: int,
        neighbors: np.ndarray,
        edge_weights: np.ndarray,
        rng: RandomState,
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.edge_weights = edge_weights
        self.rng = rng
        self.state: Dict[str, Any] = {}
        self._outbox: List[Tuple[int, Any]] = []
        self._neighbor_set = set(int(x) for x in neighbors)

    def send(self, target: int, payload: Any) -> None:
        """Queue a message to neighbour ``target`` for delivery next round."""
        if int(target) not in self._neighbor_set:
            raise SimulationError(
                f"node {self.node_id} attempted to send to non-neighbour {target}"
            )
        self._outbox.append((int(target), payload))

    def broadcast(self, payload: Any) -> None:
        """Queue the same message to every neighbour."""
        for target in self._neighbor_set:
            self._outbox.append((target, payload))

    def drain_outbox(self) -> List[Tuple[int, Any]]:
        outbox, self._outbox = self._outbox, []
        return outbox


class NodeProgram:
    """Base class for synchronous per-node programs.

    Subclasses override :meth:`initialize` and :meth:`step`.  The program
    signals completion by returning ``True`` from :meth:`step`; the
    simulator stops when every node has finished (or the round limit hits).
    """

    def initialize(self, ctx: NodeContext) -> None:
        """Set up per-node state before round 1. Default: no-op."""

    def step(self, ctx: NodeContext, round_number: int, inbox: List[Message]) -> bool:
        """Execute one round; return True when this node is done."""
        raise NotImplementedError

    def finalize(self, ctx: NodeContext) -> Any:
        """Produce this node's output after the simulation ends."""
        return ctx.state


@dataclass
class SimulationResult:
    """Output of a distributed simulation run."""

    outputs: Dict[int, Any]
    cost: DistributedCost
    rounds_executed: int
    completed: bool
    messages_per_round: List[int] = field(default_factory=list)


class DistributedSimulator:
    """Synchronous round-based execution of a :class:`NodeProgram` on a graph.

    Parameters
    ----------
    graph:
        Communication topology; one simulated node per vertex.
    seed:
        Seed for the per-node RNG streams.
    message_word_limit:
        Maximum allowed payload size in words.  Defaults to
        ``4 * ceil(log2 n) + 16`` which generously covers "a constant
        number of vertex ids and weights" while still catching violations
        of the O(log n) model restriction.
    """

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike = None,
        message_word_limit: Optional[int] = None,
    ) -> None:
        self.graph = graph
        n = graph.num_vertices
        if message_word_limit is None:
            message_word_limit = 4 * int(np.ceil(np.log2(max(n, 2)))) + 16
        self.message_word_limit = int(message_word_limit)
        rngs = spawn_rngs(seed if seed is not None else 0, max(n, 1))
        indptr, neighbors, weights, _ = graph.neighbor_lists()
        self.contexts: List[NodeContext] = []
        for node in range(n):
            sl = slice(indptr[node], indptr[node + 1])
            self.contexts.append(
                NodeContext(
                    node_id=node,
                    neighbors=neighbors[sl].copy(),
                    edge_weights=weights[sl].copy(),
                    rng=rngs[node],
                )
            )
        self._total_messages = 0
        self._max_message_words = 0
        self._rounds = 0
        self._messages_per_round: List[int] = []

    # ------------------------------------------------------------------ #

    def run(
        self,
        program: NodeProgram,
        max_rounds: int = 10_000,
    ) -> SimulationResult:
        """Run ``program`` on every node until all finish or ``max_rounds``.

        Counters are reset at the start of every call, so ``cost`` and the
        per-round histogram always describe the most recent run; costs of
        successive runs on one simulator no longer bleed into each other
        (the same per-call-delta rule the spanner results apply to shared
        PRAM trackers).
        """
        self.reset_counters()
        n = self.graph.num_vertices
        for ctx in self.contexts:
            program.initialize(ctx)
        inboxes: List[List[Message]] = [[] for _ in range(n)]
        done = np.zeros(n, dtype=bool)
        completed = n == 0

        round_number = 0
        while not completed and round_number < max_rounds:
            round_number += 1
            outgoing: List[List[Message]] = [[] for _ in range(n)]
            round_messages = 0
            for node in range(n):
                if done[node]:
                    continue
                ctx = self.contexts[node]
                finished = program.step(ctx, round_number, inboxes[node])
                inboxes[node] = []
                for target, payload in ctx.drain_outbox():
                    words = payload_words(payload)
                    if words > self.message_word_limit:
                        raise MessageTooLargeError(
                            f"node {node} sent a {words}-word message "
                            f"(limit {self.message_word_limit}) in round {round_number}"
                        )
                    self._max_message_words = max(self._max_message_words, words)
                    outgoing[target].append(Message(sender=node, payload=payload))
                    round_messages += 1
                if finished:
                    done[node] = True
            inboxes = outgoing
            self._total_messages += round_messages
            self._messages_per_round.append(round_messages)
            self._rounds = round_number
            completed = bool(done.all())

        outputs = {node: program.finalize(self.contexts[node]) for node in range(n)}
        return SimulationResult(
            outputs=outputs,
            cost=self.cost,
            rounds_executed=self._rounds,
            completed=completed,
            messages_per_round=list(self._messages_per_round),
        )

    @property
    def cost(self) -> DistributedCost:
        """Accumulated rounds / messages / max message size."""
        return DistributedCost(
            rounds=self._rounds,
            messages=self._total_messages,
            max_message_words=self._max_message_words,
        )

    def reset_counters(self) -> None:
        """Zero the per-run counters (``run`` calls this automatically)."""
        self._total_messages = 0
        self._max_message_words = 0
        self._rounds = 0
        self._messages_per_round = []


class _BaswanaSenProgram(NodeProgram):
    """Per-node program for the protocol described in :mod:`repro.spanners.distributed_spanner`."""

    def __init__(self, num_vertices: int, k: int) -> None:
        self.n = num_vertices
        self.k = k
        self.sample_probability = float(num_vertices) ** (-1.0 / k) if num_vertices > 1 else 1.0
        self.schedule = build_schedule(k)

    # -------------------------------------------------------------- #

    def initialize(self, ctx: NodeContext) -> None:
        state = ctx.state
        state["center"] = ctx.node_id          # current cluster centre (-1 = unclustered)
        state["sampled"] = False               # is my cluster sampled this iteration
        state["informed"] = False              # have I learnt my cluster's bit this iteration
        state["pending_broadcast"] = False     # should I forward the flood tuple this round
        state["alive"] = np.ones(ctx.neighbors.shape[0], dtype=bool)
        state["neighbor_cluster"] = {}         # neighbour id -> (centre, sampled)
        state["spanner_pairs"] = set()         # frozenset-ish {(lo, hi), ...}
        state["lengths"] = 1.0 / ctx.edge_weights
        # Position of each neighbour id in the incident arrays (simple graph
        # guarantees unique neighbour ids).
        state["neighbor_pos"] = {int(nbr): pos for pos, nbr in enumerate(ctx.neighbors)}

    # -------------------------------------------------------------- #

    def _process_control_messages(self, ctx: NodeContext, inbox: List[Message]) -> List[Message]:
        """Handle edge-removal notifications; return the remaining messages."""
        state = ctx.state
        rest: List[Message] = []
        for msg in inbox:
            payload = msg.payload
            if isinstance(payload, tuple) and payload and payload[0] == "R":
                pos = state["neighbor_pos"].get(msg.sender)
                if pos is not None:
                    state["alive"][pos] = False
            else:
                rest.append(msg)
        return rest

    def _record_spanner_edge(self, ctx: NodeContext, neighbor: int) -> None:
        a, b = ctx.node_id, int(neighbor)
        ctx.state["spanner_pairs"].add((min(a, b), max(a, b)))

    # -------------------------------------------------------------- #

    def step(self, ctx: NodeContext, round_number: int, inbox: List[Message]) -> bool:
        state = ctx.state
        if round_number > len(self.schedule):
            return True
        phase, iteration = self.schedule[round_number - 1]
        inbox = self._process_control_messages(ctx, inbox)

        if phase == "flood":
            is_first_flood_round = round_number == 1 or self.schedule[round_number - 2][0] != "flood"
            if is_first_flood_round:
                # New iteration: reset per-iteration flags; centres sample.
                state["informed"] = False
                state["sampled"] = False
                state["pending_broadcast"] = False
                state["neighbor_cluster"] = {}
                if state["center"] == ctx.node_id:
                    state["sampled"] = bool(ctx.rng.random() < self.sample_probability)
                    state["informed"] = True
                    state["pending_broadcast"] = True
            # Learn from incoming flood tuples.
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    _, center, sampled = payload
                    state["neighbor_cluster"][msg.sender] = (int(center), bool(sampled))
                    if not state["informed"] and int(center) == state["center"] and state["center"] >= 0:
                        state["informed"] = True
                        state["sampled"] = bool(sampled)
                        state["pending_broadcast"] = True
            if state["pending_broadcast"]:
                ctx.broadcast(("F", int(state["center"]), bool(state["sampled"])))
                state["pending_broadcast"] = False
            return False

        if phase == "decide":
            # Late flood arrivals may still be in the inbox.
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    _, center, sampled = payload
                    state["neighbor_cluster"][msg.sender] = (int(center), bool(sampled))
                    if not state["informed"] and int(center) == state["center"] and state["center"] >= 0:
                        state["informed"] = True
                        state["sampled"] = bool(sampled)
            in_sampled_cluster = state["center"] >= 0 and state["sampled"]
            if not in_sampled_cluster:
                self._decide(ctx, iteration)
            return False

        if phase == "final_exchange":
            state["neighbor_cluster"] = {}
            if state["center"] >= 0:
                ctx.broadcast(("F", int(state["center"]), False))
            return False

        if phase == "final_decide":
            for msg in inbox:
                payload = msg.payload
                if isinstance(payload, tuple) and payload and payload[0] == "F":
                    state["neighbor_cluster"][msg.sender] = (int(payload[1]), bool(payload[2]))
            self._final_decide(ctx)
            return True

        raise GraphError(f"unknown protocol phase {phase!r}")  # pragma: no cover

    # -------------------------------------------------------------- #

    def _adjacent_cluster_minima(self, ctx: NodeContext) -> Dict[int, Tuple[float, int]]:
        """Per adjacent cluster: (lightest live edge length, neighbour id)."""
        state = ctx.state
        minima: Dict[int, Tuple[float, int]] = {}
        alive = state["alive"]
        lengths = state["lengths"]
        for pos, nbr in enumerate(ctx.neighbors):
            if not alive[pos]:
                continue
            info = state["neighbor_cluster"].get(int(nbr))
            if info is None:
                continue
            center, _sampled = info
            length = float(lengths[pos])
            best = minima.get(center)
            if best is None or length < best[0]:
                minima[center] = (length, int(nbr))
        return minima

    def _kill_edges_to_cluster(self, ctx: NodeContext, center: int) -> None:
        state = ctx.state
        alive = state["alive"]
        for pos, nbr in enumerate(ctx.neighbors):
            if not alive[pos]:
                continue
            info = state["neighbor_cluster"].get(int(nbr))
            if info is not None and info[0] == center:
                alive[pos] = False
                ctx.send(int(nbr), ("R",))

    def _decide(self, ctx: NodeContext, iteration: int) -> None:
        state = ctx.state
        minima = self._adjacent_cluster_minima(ctx)
        if not minima:
            return
        sampled_clusters = {
            center: value
            for center, value in minima.items()
            if state["neighbor_cluster"][value[1]][1]
        }
        if not sampled_clusters:
            # Case (a): connect once to every adjacent cluster and leave.
            for center, (_, nbr) in minima.items():
                self._record_spanner_edge(ctx, nbr)
                self._kill_edges_to_cluster(ctx, center)
            state["center"] = -1
        else:
            # Case (b): join the nearest sampled cluster.
            target_center, (target_len, target_nbr) = min(
                sampled_clusters.items(), key=lambda item: item[1][0]
            )
            self._record_spanner_edge(ctx, target_nbr)
            state["center"] = int(target_center)
            for center, (length, nbr) in minima.items():
                if center == target_center:
                    continue
                if length < target_len:
                    self._record_spanner_edge(ctx, nbr)
                    self._kill_edges_to_cluster(ctx, center)
            self._kill_edges_to_cluster(ctx, target_center)

    def _final_decide(self, ctx: NodeContext) -> None:
        minima = self._adjacent_cluster_minima(ctx)
        for _center, (_, nbr) in minima.items():
            self._record_spanner_edge(ctx, nbr)

    def finalize(self, ctx: NodeContext) -> Set[Tuple[int, int]]:
        return set(ctx.state["spanner_pairs"])


def reference_distributed_spanner(
    graph: Graph,
    k: Optional[int] = None,
    seed: SeedLike = None,
    max_rounds: Optional[int] = None,
) -> DistributedSpannerResult:
    """Per-node-simulator twin of :func:`~repro.spanners.distributed_spanner.distributed_baswana_sen_spanner`."""
    simple, k, cap = _protocol_inputs(graph, k, max_rounds)
    n = simple.num_vertices
    result = DistributedSimulator(simple, seed=seed).run(_BaswanaSenProgram(n, k), max_rounds=cap)
    pairs: Set[Tuple[int, int]] = set()
    for node_pairs in result.outputs.values():
        pairs.update(node_pairs)
    keys = np.array([lo * n + hi for lo, hi in sorted(pairs)], dtype=np.int64)
    return _spanner_result(simple, k, keys, result.cost, result.completed)


def reference_distributed_bundle_spanner(
    graph: Graph,
    t: int,
    k: Optional[int] = None,
    seed: SeedLike = None,
) -> DistributedBundleResult:
    """Per-node-simulator twin of :func:`~repro.spanners.distributed_spanner.distributed_bundle_spanner`."""
    return _peel_bundle(graph, t, k, seed, None, reference_distributed_spanner)
