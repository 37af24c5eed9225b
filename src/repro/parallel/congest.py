"""Columnar round engine for the synchronous CONGEST model.

The per-node simulator in :mod:`repro.spanners._reference` models the
paper's synchronous message-passing model faithfully but
object-at-a-time: every round steps
``n`` Python ``NodeProgram`` objects and shuttles per-message ``Message``
dataclasses between per-node inbox lists.  That is the right *reference*
semantics, but it caps the headline distributed experiments (Theorem 2 /
Corollary 3) at toy sizes.

This module keeps the model and changes the representation: one round is
a constant number of flat NumPy passes, and no round builds an array with
one entry per message.  A round's outbox is one of two blocks:

* a :class:`BroadcastBlock` holds the round's broadcasts as their
  *senders*: the sender ids, one payload value per sender in named
  columns, and one word count.  A broadcast carries the same payload on
  every port of its sender, so nothing per message needs storing; a
  program that wants the per-message slots derives them with
  :func:`concat_ranges` over the senders' CSR ranges;
* a :class:`MessageBlock` holds point-to-point messages: the incidence
  *slot* each leaves on and one word count for the block.

A :class:`ColumnarProgram` consumes the previous round's block and emits
the next one; the :class:`ColumnarSimulator` drives the lock-step loop
and does exactly the accounting the legacy simulator does:

* rounds executed,
* messages per round (and their total) — a broadcast counts one message
  per port of its sender, the senders' degree sum,
* the largest message payload in words, enforced against the same
  ``message_word_limit`` budget — an oversized message raises
  :class:`repro.exceptions.MessageTooLargeError` in the round it is
  sent, just as in the reference engine.

Messages are addressed by port, as in the port-numbering CONGEST model:
a node sends on one of its incidence slots (an entry of the CSR
adjacency), so every message travels along an existing edge by
construction.  A slot outside ``[0, 2m)`` or a broadcast sender outside
``[0, n)`` raises :class:`repro.exceptions.SimulationError`.  The
simulator pairs the two slots of every edge once per network in
``reverse_slot``; a message sent on slot ``s`` arrives on the receiver's
slot ``reverse_slot[s]``, with no search per message.
:meth:`ColumnarSimulator.restrict` derives the network of a subset of
the edges with one compress of the slot arrays, so a sequence of runs on
shrinking edge sets (the components of a spanner bundle) sorts the
adjacency once.

Per-node RNG streams are the reference simulator's streams in array
form: ``node_streams`` is a :class:`repro.utils.rng.NodeStreams` over the
same normalised seed, bit-identical to the ``spawn_rngs`` generators the
reference hands its nodes, so a columnar program that draws for node
``v`` whenever the reference program's node ``v`` draws reproduces the
reference run bit for bit — and draws for every such node in one call.
The golden parity tests in ``tests/test_congest_parity.py`` pin that
equivalence for the Baswana–Sen protocol: identical spanner edge sets
and identical (rounds, messages, max_message_words) triples, including
the per-round message histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import MessageTooLargeError, SimulationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import DistributedCost
from repro.utils.rng import NodeStreams, SeedLike
from repro.utils.validation import check_count

__all__ = [
    "MessageBlock",
    "BroadcastBlock",
    "ColumnarProgram",
    "ColumnarSimulationResult",
    "ColumnarSimulator",
    "concat_ranges",
]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges ``[starts[i], starts[i] + counts[i])``.

    Vectorised equivalent of ``np.concatenate([np.arange(s, s + c) ...])``;
    this is how a round gathers the CSR adjacency slices of every sending
    node in one pass.  Zero-length ranges are allowed.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nz = counts > 0
    if not np.all(nz):
        starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    before = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(starts - before, counts) + np.arange(total, dtype=np.int64)


@dataclass
class MessageBlock:
    """The point-to-point messages of one round.

    They carry no payload beyond their word count: a payload travels in a
    :class:`BroadcastBlock`, one value per sender.

    Attributes
    ----------
    slot:
        Incidence slot (sending port) of each message: an index into the
        simulator's CSR adjacency.  The sender is ``slot_owner[slot]``,
        the receiver ``adj[slot]``, and the receiver's port for the same
        edge ``reverse_slot[slot]``.
    words:
        Payload size of every message of the block in machine words — the
        quantity the CONGEST model bounds by O(log n).  Programs declare
        it explicitly (there is no Python payload object to measure),
        mirroring :func:`repro.spanners._reference.payload_words` for the
        equivalent object payload.
    """

    slot: np.ndarray
    words: int

    def __post_init__(self) -> None:
        self.slot = np.asarray(self.slot, dtype=np.int64)
        self.words = check_count(self.words, "message words", SimulationError)

    def __len__(self) -> int:
        return int(self.slot.shape[0])

    @classmethod
    def empty(cls) -> "MessageBlock":
        return cls(slot=np.empty(0, dtype=np.int64), words=1)


@dataclass
class BroadcastBlock:
    """The broadcasts of one round, held as their senders.

    Each sender sends one message on every one of its ports, all with the
    same payload, so the block stores one record per sender and the
    simulator counts the round as the senders' degree sum — the flat
    equivalent of ``NodeContext.broadcast``.

    Attributes
    ----------
    senders:
        Node id of each sender.
    words:
        Payload size of every message of the block in machine words.
    columns:
        Named payload columns, one value per sender.
    """

    senders: np.ndarray
    words: int
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.senders = np.asarray(self.senders, dtype=np.int64)
        self.words = check_count(self.words, "message words", SimulationError)
        size = self.senders.shape[0]
        for name, col in self.columns.items():
            if np.asarray(col).shape[0] != size:
                raise SimulationError(
                    f"payload column {name!r} has length {np.asarray(col).shape[0]}, "
                    f"expected {size}"
                )


Block = Union[MessageBlock, BroadcastBlock]


@dataclass
class ColumnarSimulationResult:
    """Output of a columnar simulation run.

    Field-compatible with the reference engine's
    :class:`repro.spanners._reference.SimulationResult` except that
    ``outputs`` is whatever the program's :meth:`ColumnarProgram.finalize`
    returns (one global array-shaped result rather than a per-node dict).
    """

    outputs: Any
    cost: DistributedCost
    rounds_executed: int
    completed: bool
    messages_per_round: List[int] = field(default_factory=list)


class ColumnarProgram:
    """Base class for columnar round programs.

    Subclasses implement :meth:`round`: consume the previous round's
    delivered block (a :class:`MessageBlock` or a :class:`BroadcastBlock`),
    update flat per-node / per-edge state arrays, and return ``(outbox,
    all_done)``.  The simulator never sees per-node objects; the program
    owns the whole network state as arrays.
    """

    def setup(self, net: "ColumnarSimulator") -> None:
        """Initialise program state before round 1. Default: no-op."""

    def round(
        self, net: "ColumnarSimulator", round_number: int, inbox: Block
    ) -> Tuple[Optional[Block], bool]:
        """Execute one synchronous round; return the outbox and a done flag."""
        raise NotImplementedError

    def finalize(self, net: "ColumnarSimulator") -> Any:
        """Produce the program output after the simulation ends."""
        return None


class ColumnarSimulator:
    """Synchronous round-based execution of a :class:`ColumnarProgram`.

    Drop-in counterpart of
    :class:`repro.spanners._reference.DistributedSimulator` — same
    constructor signature, same default ``message_word_limit``
    (``4 * ceil(log2 n) + 16``; a given limit must be an integer ``>= 1``,
    :class:`SimulationError` otherwise), the same per-node RNG streams
    (held as arrays in ``node_streams``) — but one round is a handful of
    flat array passes instead of ``n`` Python ``step()`` calls.

    The topology is exposed to programs in columnar form: ``indptr`` /
    ``adj`` / ``adj_weights`` / ``adj_edge_ids`` are the CSR neighbour
    structure of :meth:`repro.graphs.graph.Graph.neighbor_lists` (so
    incidence-slot order matches the reference simulator's per-node
    neighbour arrays exactly — tie-breaking code can rely on it),
    ``slot_owner[s]`` names the vertex owning incidence slot ``s``, and
    ``reverse_slot[s]`` is the other slot of the same edge (an involution:
    ``adj[reverse_slot] == slot_owner``).  ``slot_rank`` orders the slots
    by (length ``1 / weight``, slot), so a node's lightest port is its
    lowest-ranked one and equal lengths resolve to the earliest slot, as a
    scan of the node's ports in CSR order finds them; ``slot_of_rank`` is
    its inverse.

    :meth:`restrict` derives the network of a subset of the edges with one
    compress of these arrays; ``graph`` stays the graph the first network
    was built on, whose edges ``adj_edge_ids`` keep naming.
    """

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike = None,
        message_word_limit: Optional[int] = None,
    ) -> None:
        n = graph.num_vertices
        if message_word_limit is None:
            message_word_limit = 4 * int(np.ceil(np.log2(max(n, 2)))) + 16
        message_word_limit = check_count(message_word_limit, "message_word_limit", SimulationError)
        indptr, adj, weights, edge_ids = graph.neighbor_lists()
        slot_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        # Pair the two ports of every edge: edge e leaves its u end as
        # directed row e and its v end as row e + m, so a slot's partner is
        # the slot holding the opposite row (self loops are not allowed).
        m = graph.num_edges
        rows = edge_ids + np.int64(m) * (slot_owner != graph.edge_u[edge_ids])
        slot_of_row = np.empty(2 * m, dtype=np.int64)
        slot_of_row[rows] = np.arange(2 * m, dtype=np.int64)
        reverse_slot = slot_of_row[np.where(rows < m, rows + m, rows - m)]
        del rows, slot_of_row
        slot_of_rank = np.argsort(1.0 / weights, kind="stable")
        self._set_ports(
            graph, message_word_limit, seed,
            indptr, adj, weights, edge_ids, slot_owner, reverse_slot, slot_of_rank,
        )

    def _set_ports(
        self,
        graph: Graph,
        message_word_limit: int,
        seed: SeedLike,
        indptr: np.ndarray,
        adj: np.ndarray,
        adj_weights: np.ndarray,
        adj_edge_ids: np.ndarray,
        slot_owner: np.ndarray,
        reverse_slot: np.ndarray,
        slot_of_rank: np.ndarray,
    ) -> None:
        """Install the slot arrays (``slot_rank`` is derived), fresh node
        streams and zeroed counters."""
        n = graph.num_vertices
        self.graph = graph
        self.num_vertices = n
        self.message_word_limit = message_word_limit
        self.node_streams = NodeStreams(seed if seed is not None else 0, max(n, 1))
        self.indptr = indptr
        self.adj = adj
        self.adj_weights = adj_weights
        self.adj_edge_ids = adj_edge_ids
        self.degrees = np.diff(indptr)
        self.slot_owner = slot_owner
        self.reverse_slot = reverse_slot
        self.slot_of_rank = slot_of_rank
        self.slot_rank = np.empty_like(slot_of_rank)
        self.slot_rank[slot_of_rank] = np.arange(slot_of_rank.shape[0], dtype=np.int64)
        self.reset_counters()

    def restrict(self, keep_edges: np.ndarray, seed: SeedLike = None) -> "ColumnarSimulator":
        """This network with only the edges ``keep_edges`` flags, on fresh node streams.

        ``keep_edges`` is a boolean mask over ``graph``'s edges.  The slots
        of the kept edges are compressed in slot order, so slot order,
        port pairing, slot ranks and edge ids carry over: the result equals
        a network built on ``graph.select_edges(keep_edges)`` except that
        ``adj_edge_ids`` still name ``graph``'s edges.  No neighbour sort
        runs.  ``seed`` seeds the new ``node_streams`` as the constructor
        does; the word limit carries over.
        """
        keep_edges = np.asarray(keep_edges, dtype=bool)
        if keep_edges.shape != (self.graph.num_edges,):
            raise SimulationError(
                f"edge mask must have shape ({self.graph.num_edges},), got {keep_edges.shape}"
            )
        keep = keep_edges.take(self.adj_edge_ids)
        # kept_before[s]: kept slots before slot s, i.e. the new index of a
        # kept slot s; kept_before[indptr] is the new indptr.
        kept_before = np.zeros(keep.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        new_slot = kept_before[:-1]
        net = ColumnarSimulator.__new__(ColumnarSimulator)
        net._set_ports(
            self.graph,
            self.message_word_limit,
            seed,
            kept_before.take(self.indptr),
            self.adj[keep],
            self.adj_weights[keep],
            self.adj_edge_ids[keep],
            self.slot_owner[keep],
            new_slot.take(self.reverse_slot[keep]),
            new_slot.take(self.slot_of_rank[keep.take(self.slot_of_rank)]),
        )
        return net

    # ------------------------------------------------------------------ #
    # Topology helpers for programs
    # ------------------------------------------------------------------ #

    def broadcast_block(
        self, nodes: np.ndarray, words: int, **node_columns: np.ndarray
    ) -> BroadcastBlock:
        """One message from every node in ``nodes`` to each of its neighbours.

        ``node_columns`` give one payload value per *sending node*, which
        every one of its messages carries.  This is the flat equivalent of
        ``NodeContext.broadcast``: the round counts the sum of the
        senders' degrees, and no per-message array is built.
        """
        return BroadcastBlock(senders=nodes, words=words, columns=node_columns)

    # ------------------------------------------------------------------ #

    def run(self, program: ColumnarProgram, max_rounds: int = 10_000) -> ColumnarSimulationResult:
        """Run ``program`` until it reports completion or ``max_rounds``.

        Counters are reset at the start of every call, so ``cost`` always
        describes the most recent run (per-run-delta accounting).
        ``max_rounds`` must be an integer of at least 1
        (:class:`SimulationError` otherwise).
        """
        max_rounds = check_count(max_rounds, "max_rounds", SimulationError)
        self.reset_counters()
        program.setup(self)
        inbox = MessageBlock.empty()
        completed = self.num_vertices == 0

        round_number = 0
        while not completed and round_number < max_rounds:
            round_number += 1
            outbox, all_done = program.round(self, round_number, inbox)
            if outbox is None:
                outbox = MessageBlock.empty()
            self._account(outbox, round_number)
            inbox = outbox
            self._rounds = round_number
            completed = bool(all_done)

        return ColumnarSimulationResult(
            outputs=program.finalize(self),
            cost=self.cost,
            rounds_executed=self._rounds,
            completed=completed,
            messages_per_round=list(self._messages_per_round),
        )

    def _account(self, outbox: Block, round_number: int) -> None:
        """Validate one round's outbox and fold it into the counters.

        The model only allows communication along graph edges: a message
        names its edge by the slot it leaves on, and a broadcast leaves on
        every slot of its sender, so a broadcast counts its sender's
        degree.
        """
        if isinstance(outbox, BroadcastBlock):
            senders = outbox.senders
            n = self.num_vertices
            if senders.size and (senders.min() < 0 or senders.max() >= n):
                i = int(np.flatnonzero((senders < 0) | (senders >= n))[0])
                raise SimulationError(
                    f"node {int(senders[i])} broadcast in round {round_number}, "
                    f"outside the network's {n} nodes"
                )
            sender_degrees = self.degrees.take(senders)
            count = int(sender_degrees.sum())
        else:
            slot = outbox.slot
            num_slots = self.adj.shape[0]
            if slot.size and (slot.min() < 0 or slot.max() >= num_slots):
                i = int(np.flatnonzero((slot < 0) | (slot >= num_slots))[0])
                raise SimulationError(
                    f"message sent on slot {int(slot[i])} in round {round_number}, "
                    f"outside the network's {num_slots} incidence slots"
                )
            count = len(outbox)
        if count:
            if outbox.words > self.message_word_limit:
                if isinstance(outbox, BroadcastBlock):
                    sender = outbox.senders[np.argmax(sender_degrees > 0)]
                else:
                    sender = self.slot_owner[outbox.slot[0]]
                raise MessageTooLargeError(
                    f"node {int(sender)} sent a {outbox.words}-word message "
                    f"(limit {self.message_word_limit}) in round {round_number}"
                )
            self._max_message_words = max(self._max_message_words, outbox.words)
        self._total_messages += count
        self._messages_per_round.append(count)

    @property
    def cost(self) -> DistributedCost:
        """Rounds / messages / max message size of the most recent run."""
        return DistributedCost(
            rounds=self._rounds,
            messages=self._total_messages,
            max_message_words=self._max_message_words,
        )

    def reset_counters(self) -> None:
        self._total_messages = 0
        self._max_message_words = 0
        self._rounds = 0
        self._messages_per_round: List[int] = []
