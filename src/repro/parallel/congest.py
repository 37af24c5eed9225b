"""Columnar round engine for the synchronous CONGEST model.

The per-node simulator in :mod:`repro.spanners._reference` models the
paper's synchronous message-passing model faithfully but
object-at-a-time: every round steps
``n`` Python ``NodeProgram`` objects and shuttles per-message ``Message``
dataclasses between per-node inbox lists.  That is the right *reference*
semantics, but it caps the headline distributed experiments (Theorem 2 /
Corollary 3) at toy sizes.

This module keeps the model and changes the representation: one round is
a constant number of flat NumPy passes over struct-of-arrays message
buffers.  A :class:`MessageBlock` holds every message of a round as
parallel columns (``src``, ``dst``, a per-message word count, and named
payload columns); a :class:`ColumnarProgram` consumes the previous
round's block and emits the next one; the :class:`ColumnarSimulator`
drives the lock-step loop and does exactly the accounting the legacy
simulator does:

* rounds executed,
* messages per round (and their total),
* the largest message payload in words, enforced against the same
  ``message_word_limit`` budget — an oversized message raises
  :class:`repro.exceptions.MessageTooLargeError` in the round it is
  sent, and a message along a non-edge raises
  :class:`repro.exceptions.SimulationError`, just as in the reference
  engine.

Per-node RNG streams are spawned exactly as the reference simulator
spawns them (same seed normalisation, same ``spawn_rngs`` call), so a
columnar program that draws from ``node_rngs[v]`` whenever the reference
program's node ``v`` draws reproduces the reference run bit for bit.
The golden parity tests in ``tests/test_congest_parity.py`` pin that
equivalence for the Baswana–Sen protocol: identical spanner edge sets
and identical (rounds, messages, max_message_words) triples, including
the per-round message histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import MessageTooLargeError, SimulationError
from repro.graphs.graph import Graph
from repro.parallel.metrics import DistributedCost
from repro.utils.rng import RandomState, SeedLike, spawn_rngs

__all__ = [
    "MessageBlock",
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
    """All messages of one round as struct-of-arrays columns.

    Attributes
    ----------
    src, dst:
        Sender / receiver vertex ids, one entry per message.
    words:
        Per-message payload size in machine words — the quantity the
        CONGEST model bounds by O(log n).  Programs declare it explicitly
        (there is no Python payload object to measure), mirroring
        :func:`repro.spanners._reference.payload_words` for the
        equivalent object payload.
    columns:
        Named payload columns, each an array of the block's length.
    """

    src: np.ndarray
    dst: np.ndarray
    words: np.ndarray
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.words = np.asarray(self.words, dtype=np.int64)
        size = self.src.shape[0]
        if self.dst.shape[0] != size or self.words.shape[0] != size:
            raise SimulationError(
                f"message block columns disagree on length: src {size}, "
                f"dst {self.dst.shape[0]}, words {self.words.shape[0]}"
            )
        for name, col in self.columns.items():
            if np.asarray(col).shape[0] != size:
                raise SimulationError(
                    f"payload column {name!r} has length {np.asarray(col).shape[0]}, "
                    f"expected {size}"
                )

    def __len__(self) -> int:
        return int(self.src.shape[0])

    @classmethod
    def empty(cls) -> "MessageBlock":
        e = np.empty(0, dtype=np.int64)
        return cls(src=e, dst=e.copy(), words=e.copy())

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


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
    delivered :class:`MessageBlock`, update flat per-node / per-edge
    state arrays, and return ``(outbox, all_done)``.  The simulator never
    sees per-node objects; the program owns the whole network state as
    arrays.
    """

    def setup(self, net: "ColumnarSimulator") -> None:
        """Initialise program state before round 1. Default: no-op."""

    def round(
        self, net: "ColumnarSimulator", round_number: int, inbox: MessageBlock
    ) -> Tuple[Optional[MessageBlock], bool]:
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
    (``4 * ceil(log2 n) + 16``), same per-node RNG spawning — but one
    round is a handful of flat array passes instead of ``n`` Python
    ``step()`` calls.

    The topology is exposed to programs in columnar form: ``indptr`` /
    ``adj`` / ``adj_weights`` / ``adj_edge_ids`` are the CSR neighbour
    structure of :meth:`repro.graphs.graph.Graph.neighbor_lists` (so
    incidence-slot order matches the reference simulator's per-node
    neighbour arrays exactly — tie-breaking code can rely on it), and
    ``slot_owner[s]`` names the vertex owning incidence slot ``s``.
    """

    def __init__(
        self,
        graph: Graph,
        seed: SeedLike = None,
        message_word_limit: Optional[int] = None,
    ) -> None:
        self.graph = graph
        n = graph.num_vertices
        self.num_vertices = n
        if message_word_limit is None:
            message_word_limit = 4 * int(np.ceil(np.log2(max(n, 2)))) + 16
        self.message_word_limit = int(message_word_limit)
        self.node_rngs: List[RandomState] = spawn_rngs(seed if seed is not None else 0, max(n, 1))

        indptr, adj, weights, edge_ids = graph.neighbor_lists()
        self.indptr = indptr
        self.adj = adj
        self.adj_weights = weights
        self.adj_edge_ids = edge_ids
        self.degrees = np.diff(indptr)
        self.slot_owner = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        # Sorted directed-edge keys (owner * n + neighbour) power both the
        # engine's topology check and the programs' receiver-slot lookup.
        dir_keys = self.slot_owner * np.int64(max(n, 1)) + adj
        self._slot_order = np.argsort(dir_keys, kind="stable")
        self._sorted_dir_keys = dir_keys[self._slot_order]

        self._total_messages = 0
        self._max_message_words = 0
        self._rounds = 0
        self._messages_per_round: List[int] = []

    # ------------------------------------------------------------------ #
    # Topology helpers for programs
    # ------------------------------------------------------------------ #

    def _dir_key_positions(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions of directed-edge ``keys`` in the sorted key table.

        Returns ``(pos, missing)`` where ``missing`` flags keys with no
        matching incidence.
        """
        table = self._sorted_dir_keys
        if table.size == 0:
            return np.zeros(keys.shape[0], dtype=np.int64), np.ones(keys.shape[0], dtype=bool)
        pos = np.searchsorted(table, keys)
        clipped = np.minimum(pos, table.size - 1)
        return clipped, table[clipped] != keys

    def receiver_slots(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """CSR slot (owned by ``dst``) holding the incidence ``dst -> src``.

        This is the columnar analogue of a node locating a message's
        sender in its own adjacency list.  Requires a simple graph (one
        incidence per (owner, neighbour) pair); raises
        :class:`SimulationError` for a (src, dst) pair with no edge.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keys = dst * np.int64(max(self.num_vertices, 1)) + src
        pos, missing = self._dir_key_positions(keys)
        if np.any(missing):
            i = int(np.flatnonzero(missing)[0])
            raise SimulationError(
                f"no incidence slot for message from {int(src[i])} to {int(dst[i])}"
            )
        return self._slot_order[pos]

    def broadcast_block(
        self, nodes: np.ndarray, words: int, **node_columns: np.ndarray
    ) -> MessageBlock:
        """One message from every node in ``nodes`` to each of its neighbours.

        ``node_columns`` give one payload value per *sending node*; they
        are repeated across that node's neighbours.  This is the flat
        equivalent of ``NodeContext.broadcast``: message count equals the
        sum of the senders' degrees.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = self.degrees[nodes]
        slots = concat_ranges(self.indptr[nodes], counts)
        src = np.repeat(nodes, counts)
        columns = {
            name: np.repeat(np.asarray(values), counts) for name, values in node_columns.items()
        }
        return MessageBlock(
            src=src,
            dst=self.adj[slots],
            words=np.full(src.shape[0], int(words), dtype=np.int64),
            columns=columns,
        )

    # ------------------------------------------------------------------ #

    def run(self, program: ColumnarProgram, max_rounds: int = 10_000) -> ColumnarSimulationResult:
        """Run ``program`` until it reports completion or ``max_rounds``.

        Counters are reset at the start of every call, so ``cost`` always
        describes the most recent run (per-run-delta accounting).
        """
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

    def _account(self, outbox: MessageBlock, round_number: int) -> None:
        """Validate one round's outbox and fold it into the counters."""
        count = len(outbox)
        if count:
            oversized = outbox.words > self.message_word_limit
            if np.any(oversized):
                i = int(np.flatnonzero(oversized)[0])
                raise MessageTooLargeError(
                    f"node {int(outbox.src[i])} sent a {int(outbox.words[i])}-word message "
                    f"(limit {self.message_word_limit}) in round {round_number}"
                )
            # The model only allows communication along graph edges.
            keys = outbox.src * np.int64(max(self.num_vertices, 1)) + outbox.dst
            _, bad = self._dir_key_positions(keys)
            if np.any(bad):
                i = int(np.flatnonzero(bad)[0])
                raise SimulationError(
                    f"node {int(outbox.src[i])} attempted to send to "
                    f"non-neighbour {int(outbox.dst[i])}"
                )
            self._max_message_words = max(self._max_message_words, int(outbox.words.max()))
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
        self._messages_per_round = []
