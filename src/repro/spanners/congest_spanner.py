"""Baswana–Sen CONGEST protocol as a columnar array program.

This is the vectorized twin of the per-node
``repro.spanners._reference._BaswanaSenProgram``: the same synchronous
protocol (flood phases, decision rounds, final exchange — see
:mod:`repro.spanners.distributed_spanner` for the protocol itself), but
executed on :class:`repro.parallel.congest.ColumnarSimulator` where one
round is a constant number of flat NumPy passes instead of ``n`` Python
``step()`` calls.

The program is engineered for *bit-identical* equivalence with the
reference per-node implementation, which the golden parity tests pin
down.  The equivalence rests on four invariants:

* **RNG.**  Exactly the nodes that draw in the reference engine draw
  here — current cluster centres, once per clustering iteration — from
  the simulator's ``node_streams``, which are bit-identical to the
  reference's per-node ``spawn_rngs`` generators.  All centres draw in
  one call; the order across nodes is irrelevant because the streams
  are independent, so every sampling coin lands the same way.
* **Message schedule.**  Flood tuples propagate one hop per round
  (frontier expansion), every clustered node forwards its cluster's
  tuple to *all* neighbours exactly once per phase, and removal
  notifications are sent per killed incidence in the decision round:
  message counts match the reference engine round by round.  A flood
  round and the final exchange send one
  :class:`~repro.parallel.congest.BroadcastBlock` — the senders and one
  tuple each, never a per-message array — and a decision round sends
  its removals as a :class:`~repro.parallel.congest.MessageBlock` of
  killed slots, so an inbox's block type is its kind and messages carry
  no kind column; their word counts stay those of the reference
  payloads, whose kind tag is one of the words.
* **Tie-breaking.**  The reference node scans its incident slots in CSR
  order, keeping the *earliest* slot on equal lengths, and its
  per-cluster minima dict iterates in first-occurrence order, which is
  what breaks ties between equally-near sampled clusters.  The columnar
  decision reproduces both.  The network ranks its slots once by
  (length, slot) (``ColumnarSimulator.slot_rank``), and a decision
  round value-sorts packed (owner, known centre, slot rank) int64 keys
  of its acting slots — the grouping primitive of
  :mod:`repro.spanners.baswana_sen` — so each (owner, cluster) group
  starts with its lightest, earliest slot.  One minimum reduction per
  group gives its first-occurrence slot, and the candidate target
  cluster with the smallest one wins.
* **Knowledge locality.**  Knowledge about a neighbour comes only from
  that neighbour's broadcast in the current phase, and only decision
  rounds read it, after the phase's last broadcast is delivered.  A node
  broadcasts at most once per phase, with the same tuple on every port,
  so the program records each delivered broadcast once, by sender
  (``heard_center`` / ``heard_sampled``), and a port's knowledge is the
  record of the node at its other end: what that port received.
  Membership follows the same messages: a delivered tuple informs the
  waiting receivers at the other end of its sender's same-cluster
  ports, dead ones included (a broadcast goes out on every port),
  exactly where the reference's per-message test matches.  So the
  informed nodes, their rounds and their sampled bits are unchanged, and
  with them the RNG draws, the message counts, the per-round histogram
  and the round in which the word limit triggers.  Liveness is per port:
  the acting side clears the ports it kills in the decision round, and
  the other endpoint clears its port when the removal notification
  arrives one round later (at ``ColumnarSimulator.reverse_slot`` of the
  sending slot).  Only decision rounds read liveness, and every removal
  is delivered before the next one.

The program marks the edges it chooses in a vector over
``net.graph``'s edges (``adj_edge_ids``), so a run on a restricted
network (:meth:`ColumnarSimulator.restrict`) reports the ids of the
bundle's input edges directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.parallel.congest import (
    Block,
    BroadcastBlock,
    ColumnarProgram,
    ColumnarSimulator,
    MessageBlock,
    concat_ranges,
)
from repro.spanners.baswana_sen import _KeyLayout, _rows_of_groups

__all__ = ["ColumnarBaswanaSenProgram", "build_schedule"]


def build_schedule(k: int) -> List[Tuple[str, int]]:
    """Per-round phase labels of the protocol, shared by both engines.

    ``k - 1`` clustering iterations — iteration ``i`` floods for
    ``i + 1`` rounds then decides in one — followed by the final
    exchange/decide pair of phase 2.
    """
    schedule: List[Tuple[str, int]] = []
    for iteration in range(1, k):
        schedule.extend([("flood", iteration)] * (iteration + 1))
        schedule.append(("decide", iteration))
    schedule.append(("final_exchange", k))
    schedule.append(("final_decide", k))
    return schedule

# payload_words of the reference payloads: ("F", centre, sampled) and ("R",).
_FLOOD_WORDS = 3
_REMOVE_WORDS = 1


class ColumnarBaswanaSenProgram(ColumnarProgram):
    """Columnar per-round program computing the Baswana–Sen spanner."""

    def __init__(self, num_vertices: int, k: int) -> None:
        self.n = num_vertices
        self.k = k
        self.sample_probability = float(num_vertices) ** (-1.0 / k) if num_vertices > 1 else 1.0
        self.schedule = build_schedule(k)

    # -------------------------------------------------------------- #

    def setup(self, net: ColumnarSimulator) -> None:
        n = self.n
        num_slots = net.adj.shape[0]
        self.center = np.arange(n, dtype=np.int64)
        self.sampled = np.zeros(n, dtype=bool)
        # The centre whose flood tuple a node still waits for this
        # iteration (its own cluster's), or -1 once informed or unclustered.
        self.waiting = np.full(n, -1, dtype=np.int64)
        self.pending = np.zeros(n, dtype=bool)
        # Per-port liveness: the acting side clears the ports it kills,
        # the other side clears its port when the removal arrives.
        self.slot_alive = np.ones(num_slots, dtype=bool)
        # What each node broadcast this phase (-1: nothing delivered yet).
        # A port knows the tuple of the node at its other end.
        self.heard_center = np.full(n, -1, dtype=np.int64)
        self.heard_sampled = np.zeros(n, dtype=bool)
        # The same-cluster ports of each node, dead ones included, indexed
        # at each iteration start: node v's are
        # same_slots[same_indptr[v]:same_indptr[v + 1]].
        self.same_slots = np.empty(0, dtype=np.int64)
        self.same_indptr = np.zeros(n + 1, dtype=np.int64)
        # Grouping keys (owner, known centre, slot rank): equal runs of the
        # first two fields are a node's ports into one cluster, lightest
        # and then earliest first.
        self.layout = _KeyLayout(n, num_slots)
        self.slot_keys = net.slot_owner << self.layout.tail_shift
        self.slot_keys |= net.slot_rank
        self.chosen = np.zeros(net.graph.num_edges, dtype=bool)

    # -------------------------------------------------------------- #
    # Inbox processing
    # -------------------------------------------------------------- #

    def _process_inbox(
        self,
        net: ColumnarSimulator,
        inbox: Block,
        learn_membership: bool,
        set_pending: bool,
    ) -> None:
        """Apply one round's delivered messages to the state arrays.

        A removal notification (a :class:`MessageBlock` of killed slots)
        clears the receiving port.  A broadcast of flood tuples records
        what each sender broadcast and, when ``learn_membership``, informs
        the waiting members at the other end of the senders' same-cluster
        ports of their sampled bit (``set_pending`` arms their forwarding
        broadcast, flood rounds only).
        """
        if isinstance(inbox, MessageBlock):
            if len(inbox):
                self.slot_alive[net.reverse_slot.take(inbox.slot)] = False
            return
        senders = inbox.senders
        f_sampled = inbox.columns["sampled"]
        self.heard_center[senders] = inbox.columns["center"]
        self.heard_sampled[senders] = f_sampled
        if learn_membership and senders.size:
            starts = self.same_indptr.take(senders)
            counts = self.same_indptr.take(senders + 1) - starts
            receivers = net.adj.take(self.same_slots.take(concat_ranges(starts, counts)))
            # A same-cluster tuple matches exactly the receivers still
            # waiting for their cluster's tuple.
            matches = np.flatnonzero(self.waiting.take(receivers) >= 0)
            if matches.size:
                hit = receivers.take(matches)
                self.waiting[hit] = -1
                # All tuples of one cluster carry the same bit, so
                # last-write-wins matches the reference "first matching
                # message" exactly.
                self.sampled[hit] = np.repeat(f_sampled, counts).take(matches)
                if set_pending:
                    self.pending[hit] = True

    # -------------------------------------------------------------- #
    # Grouped per-(vertex, cluster) minima
    # -------------------------------------------------------------- #

    def _cluster_groups(
        self, net: ColumnarSimulator, slot_mask: np.ndarray, known_center: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group the selected incidence slots by (owner, ``known_center``),
        each slot's knowledge of its neighbour's cluster.

        Returns ``(group_ids, bounds, slots)``: per group, its id ``owner
        << cluster_bits | centre`` (ascending) and the position of its
        first slot, which is its lightest (earliest on ties) — the
        reference node's scan-order minimum — followed by the number of
        slots; per position, the slot.
        """
        s = np.flatnonzero(slot_mask)
        if s.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        ids, bounds, ranks = self.layout.groups(self.slot_keys[s], known_center[s])
        return ids, bounds, net.slot_of_rank[ranks]

    # -------------------------------------------------------------- #
    # Phases
    # -------------------------------------------------------------- #

    def _index_same_cluster_ports(self, net: ColumnarSimulator) -> None:
        """Index each node's ports into its own cluster for this iteration.

        Dead ports stay in: a broadcast goes out on every port, and a node
        that joined a cluster killed every port into it, so most members
        hear their cluster's tuple over dead ports.
        """
        center = self.center
        same = np.repeat(center, net.degrees) == center.take(net.adj)
        self.same_slots = np.flatnonzero(same)
        # A cumsum over the 2m flags costs as much as it saves; the same
        # per-node offsets come from n + 1 binary searches.
        self.same_indptr = np.searchsorted(self.same_slots, net.indptr)

    def _flood_round(
        self, net: ColumnarSimulator, round_number: int, inbox: Block
    ) -> BroadcastBlock:
        is_first = round_number == 1 or self.schedule[round_number - 2][0] != "flood"
        if is_first:
            # New iteration: reset per-iteration state; centres sample.
            self.sampled[:] = False
            self.pending[:] = False
            self.heard_center[:] = -1
            self.heard_sampled[:] = False
            self._index_same_cluster_ports(net)
            centres = np.flatnonzero(self.center == np.arange(self.n, dtype=np.int64))
            self.waiting[:] = self.center
            self.waiting[centres] = -1
            # One draw per centre from its private stream — the only
            # randomness in the protocol.
            self.sampled[centres] = net.node_streams.random(centres) < self.sample_probability
            self.pending[centres] = True
        self._process_inbox(net, inbox, learn_membership=True, set_pending=True)
        broadcasters = np.flatnonzero(self.pending)
        self.pending[:] = False
        return net.broadcast_block(
            broadcasters,
            _FLOOD_WORDS,
            center=self.center[broadcasters],
            sampled=self.sampled[broadcasters],
        )

    def _decide_round(self, net: ColumnarSimulator, inbox: Block) -> MessageBlock:
        # Late flood arrivals may still be in the inbox (no forwarding
        # armed at this point, mirroring the reference decide phase).
        self._process_inbox(net, inbox, learn_membership=True, set_pending=False)

        known_center = self.heard_center.take(net.adj)
        acting = ~((self.center >= 0) & self.sampled)
        slot_mask = np.repeat(acting, net.degrees)
        slot_mask &= self.slot_alive
        slot_mask &= known_center >= 0
        g_id, bounds, slots = self._cluster_groups(net, slot_mask, known_center)
        if g_id.size == 0:
            return MessageBlock.empty()
        starts = bounds[:-1]

        g_owner = g_id >> self.layout.cluster_bits
        g_centre = g_id & ((1 << self.layout.cluster_bits) - 1)
        g_min_slot = slots[starts]
        g_first_slot = np.minimum.reduceat(slots, starts)
        g_min_len = 1.0 / net.adj_weights[g_min_slot]
        g_sampled = self.heard_sampled[net.adj[g_min_slot]]

        o_head = np.empty(g_owner.shape[0], dtype=bool)
        o_head[0] = True
        np.not_equal(g_owner[1:], g_owner[:-1], out=o_head[1:])
        o_starts = np.flatnonzero(o_head)
        o_seg = np.cumsum(o_head) - 1

        # Case (b) target: the nearest sampled cluster; equal lengths
        # resolve to the cluster first encountered in slot order.  An owner
        # with no sampled cluster keeps ``big`` as its best first slot.
        masked_len = np.where(g_sampled, g_min_len, np.inf)
        best_len = np.minimum.reduceat(masked_len, o_starts)[o_seg]
        big = np.int64(net.adj.shape[0])
        candidate = g_sampled & (masked_len == best_len)
        o_best_first = np.minimum.reduceat(np.where(candidate, g_first_slot, big), o_starts)
        o_any_sampled = o_best_first < big
        is_target = candidate & (g_first_slot == o_best_first[o_seg])

        # Case (a) owners connect to *every* adjacent cluster; case (b)
        # owners connect to the target (which lies at ``best_len``) plus
        # strictly lighter clusters.  The killed clusters coincide with
        # the connected ones.
        recorded = np.where(o_any_sampled[o_seg], is_target | (g_min_len < best_len), True)
        kept = np.flatnonzero(recorded)
        self.chosen[net.adj_edge_ids[g_min_slot[kept]]] = True

        # Centre reassignment (does not feed back into this round: the
        # decision read only the flood-time knowledge).
        owners = g_owner[o_starts]
        self.center[owners[~o_any_sampled]] = -1
        self.center[g_owner[is_target]] = g_centre[is_target]

        # Kill every live incidence into a connected cluster: the acting
        # side clears its ports and sends one removal notification on each.
        killed_slots = slots[_rows_of_groups(bounds, kept)]
        self.slot_alive[killed_slots] = False
        return MessageBlock(slot=killed_slots, words=_REMOVE_WORDS)

    def _final_exchange(self, net: ColumnarSimulator, inbox: Block) -> BroadcastBlock:
        self._process_inbox(net, inbox, learn_membership=False, set_pending=False)
        self.heard_center[:] = -1
        self.heard_sampled[:] = False
        clustered = np.flatnonzero(self.center >= 0)
        return net.broadcast_block(
            clustered,
            _FLOOD_WORDS,
            center=self.center[clustered],
            sampled=np.zeros(clustered.shape[0], dtype=bool),
        )

    def _final_decide(self, net: ColumnarSimulator, inbox: Block) -> None:
        self._process_inbox(net, inbox, learn_membership=False, set_pending=False)
        known_center = self.heard_center.take(net.adj)
        slot_mask = self.slot_alive & (known_center >= 0)
        _, bounds, slots = self._cluster_groups(net, slot_mask, known_center)
        self.chosen[net.adj_edge_ids[slots[bounds[:-1]]]] = True

    # -------------------------------------------------------------- #

    def round(
        self, net: ColumnarSimulator, round_number: int, inbox: Block
    ) -> Tuple[Optional[Block], bool]:
        if round_number > len(self.schedule):
            return None, True
        phase, _iteration = self.schedule[round_number - 1]
        if phase == "flood":
            return self._flood_round(net, round_number, inbox), False
        if phase == "decide":
            return self._decide_round(net, inbox), False
        if phase == "final_exchange":
            return self._final_exchange(net, inbox), False
        if phase == "final_decide":
            self._final_decide(net, inbox)
            return None, True
        raise AssertionError(f"unknown protocol phase {phase!r}")  # pragma: no cover

    def finalize(self, net: ColumnarSimulator) -> np.ndarray:
        """Sorted ids (into ``net.graph``) of the spanner edges."""
        return np.flatnonzero(self.chosen)
