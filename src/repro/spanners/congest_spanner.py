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
  here — current cluster centres, once per clustering iteration, from
  the same per-node streams the simulator spawns — so every sampling
  coin lands the same way.
* **Message schedule.**  Flood tuples propagate one hop per round
  (frontier expansion), every clustered node forwards its cluster's
  tuple to *all* neighbours exactly once per phase, and removal
  notifications are sent per killed incidence in the decision round:
  message counts match the reference engine round by round.
* **Tie-breaking.**  The reference node scans its incident slots in CSR
  order, keeping the *earliest* slot on equal lengths, and its
  per-cluster minima dict iterates in first-occurrence order, which is
  what breaks ties between equally-near sampled clusters.  The columnar
  decision reproduces both: segmented minima keep the earliest slot at
  the minimum, and the candidate target cluster with the smallest
  first-occurrence slot wins.
* **Knowledge locality.**  Cluster/sampled knowledge about a neighbour
  is only ever updated from a delivered message (via
  ``ColumnarSimulator.receiver_slots``), never read from global state,
  so the program remains a faithful CONGEST protocol rather than a
  shared-memory shortcut.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.parallel.congest import ColumnarProgram, ColumnarSimulator, MessageBlock
from repro.spanners.baswana_sen import _segmented_argmin

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

_TAG_FLOOD = 0
_TAG_REMOVE = 1
# payload_words of the reference payloads: ("F", centre, sampled) and ("R",).
_FLOOD_WORDS = 3
_REMOVE_WORDS = 1


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of the equal-key runs of a sorted key array."""
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


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
        self.informed = np.zeros(n, dtype=bool)
        self.pending = np.zeros(n, dtype=bool)
        # Live flags per *undirected* edge: a kill is applied to both
        # sides the round it happens (the reference engine applies the
        # receiving side one round later via the "R" notification, but
        # nothing reads liveness in between, so the runs coincide).
        self.edge_alive = np.ones(net.graph.num_edges, dtype=bool)
        # Per-incidence knowledge gathered from this iteration's floods:
        # what the slot's owner knows about the neighbour's cluster.
        self.known_center = np.full(num_slots, -1, dtype=np.int64)
        self.known_sampled = np.zeros(num_slots, dtype=bool)
        self.slot_lengths = 1.0 / net.adj_weights
        self.spanner_keys: List[np.ndarray] = []

    # -------------------------------------------------------------- #
    # Inbox processing
    # -------------------------------------------------------------- #

    def _process_inbox(
        self,
        net: ColumnarSimulator,
        inbox: MessageBlock,
        learn_membership: bool,
        set_pending: bool,
    ) -> None:
        """Apply one round's delivered messages to the state arrays.

        Removal notifications kill the edge (idempotent — the sending
        side already killed it); flood tuples update the receiver's
        per-incidence knowledge and, when ``learn_membership``, inform
        cluster members of their sampled bit (``set_pending`` arms their
        forwarding broadcast, flood rounds only).
        """
        if len(inbox) == 0:
            return
        tags = inbox.column("tag")
        slots = net.receiver_slots(inbox.src, inbox.dst)

        removals = tags == _TAG_REMOVE
        if np.any(removals):
            self.edge_alive[net.adj_edge_ids[slots[removals]]] = False

        floods = tags == _TAG_FLOOD
        if np.any(floods):
            f_slots = slots[floods]
            f_center = inbox.column("center")[floods]
            f_sampled = inbox.column("sampled")[floods]
            self.known_center[f_slots] = f_center
            self.known_sampled[f_slots] = f_sampled
            if learn_membership:
                dst = inbox.dst[floods]
                matches = (
                    ~self.informed[dst] & (self.center[dst] >= 0) & (f_center == self.center[dst])
                )
                if np.any(matches):
                    hit = dst[matches]
                    self.informed[hit] = True
                    # All tuples of one cluster carry the same bit, so
                    # last-write-wins matches the reference "first
                    # matching message" exactly.
                    self.sampled[hit] = f_sampled[matches]
                    if set_pending:
                        self.pending[hit] = True

    # -------------------------------------------------------------- #
    # Grouped per-(vertex, cluster) minima
    # -------------------------------------------------------------- #

    def _cluster_groups(self, net: ColumnarSimulator, slot_mask: np.ndarray):
        """Segment the selected incidence slots by (owner, known cluster).

        Returns per-group arrays: owner, cluster centre, first-occurrence
        slot, lightest length, slot achieving it (earliest on ties), plus
        the sorted slot array and each sorted entry's group id — exactly
        the quantities the reference node derives from its minima dict.
        """
        s = np.flatnonzero(slot_mask)
        if s.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0), empty, empty, empty
        owner = net.slot_owner[s]
        centre = self.known_center[s]
        key = owner * np.int64(self.n) + centre
        # Shared radix-bucketing primitive: stable key sort keeps each
        # group in ascending-slot order, so "earliest at the minimum" is
        # the reference node's scan-order tie-break.
        order, starts, seg_of, g_min_len, g_min_pos = _segmented_argmin(key, self.slot_lengths[s])
        s_s = s[order]
        g_owner = owner[order][starts]
        g_centre = centre[order][starts]
        g_first_slot = s_s[starts]
        g_min_slot = s_s[g_min_pos]
        return g_owner, g_centre, g_first_slot, g_min_len, g_min_slot, s_s, seg_of

    def _record_slots(self, net: ColumnarSimulator, slots: np.ndarray) -> None:
        """Record the spanner pairs (lo, hi) selected via incidence slots."""
        if slots.size == 0:
            return
        a = net.slot_owner[slots]
        b = net.adj[slots]
        self.spanner_keys.append(np.minimum(a, b) * np.int64(self.n) + np.maximum(a, b))

    # -------------------------------------------------------------- #
    # Phases
    # -------------------------------------------------------------- #

    def _flood_round(
        self, net: ColumnarSimulator, round_number: int, inbox: MessageBlock
    ) -> MessageBlock:
        is_first = round_number == 1 or self.schedule[round_number - 2][0] != "flood"
        if is_first:
            # New iteration: reset per-iteration state; centres sample.
            self.informed[:] = False
            self.sampled[:] = False
            self.pending[:] = False
            self.known_center[:] = -1
            self.known_sampled[:] = False
            centres = np.flatnonzero(self.center == np.arange(self.n, dtype=np.int64))
            # One draw per centre from its private stream — the only
            # randomness in the protocol, and the draw order across nodes
            # is irrelevant because the streams are independent.
            p = self.sample_probability
            for c in centres:
                self.sampled[c] = net.node_rngs[c].random() < p
            self.informed[centres] = True
            self.pending[centres] = True
        self._process_inbox(net, inbox, learn_membership=True, set_pending=True)
        broadcasters = np.flatnonzero(self.pending)
        self.pending[:] = False
        return net.broadcast_block(
            broadcasters,
            _FLOOD_WORDS,
            tag=np.full(broadcasters.shape[0], _TAG_FLOOD, dtype=np.int64),
            center=self.center[broadcasters],
            sampled=self.sampled[broadcasters],
        )

    def _decide_round(self, net: ColumnarSimulator, inbox: MessageBlock) -> MessageBlock:
        # Late flood arrivals may still be in the inbox (no forwarding
        # armed at this point, mirroring the reference decide phase).
        self._process_inbox(net, inbox, learn_membership=True, set_pending=False)

        acting = ~((self.center >= 0) & self.sampled)
        slot_mask = (
            acting[net.slot_owner] & self.edge_alive[net.adj_edge_ids] & (self.known_center >= 0)
        )
        g_owner, g_centre, g_first_slot, g_min_len, g_min_slot, s_sorted, seg_of = (
            self._cluster_groups(net, slot_mask)
        )
        if g_owner.size == 0:
            return MessageBlock.empty()

        g_sampled = self.known_sampled[g_min_slot]

        o_starts = _segment_starts(g_owner)
        o_counts = np.diff(np.append(o_starts, g_owner.size))
        o_seg = np.repeat(np.arange(o_starts.size, dtype=np.int64), o_counts)
        o_any_sampled = np.logical_or.reduceat(g_sampled, o_starts)

        # Case (b) target: the nearest sampled cluster; equal lengths
        # resolve to the cluster first encountered in slot order.
        masked_len = np.where(g_sampled, g_min_len, np.inf)
        o_best_len = np.minimum.reduceat(masked_len, o_starts)
        big = np.int64(net.adj.shape[0] + 1)
        candidate = g_sampled & (masked_len == o_best_len[o_seg])
        o_best_first = np.minimum.reduceat(np.where(candidate, g_first_slot, big), o_starts)
        is_target = candidate & (g_first_slot == o_best_first[o_seg])
        o_target_len = np.minimum.reduceat(np.where(is_target, g_min_len, np.inf), o_starts)

        # Case (a) owners connect to *every* adjacent cluster; case (b)
        # owners connect to the target plus strictly lighter clusters.
        # The killed clusters coincide with the connected ones.
        case_b = o_any_sampled[o_seg]
        recorded = np.where(case_b, is_target | (g_min_len < o_target_len[o_seg]), True)

        self._record_slots(net, g_min_slot[recorded])

        # Centre reassignment (does not feed back into this round: the
        # decision read only the flood-time knowledge).
        owners = g_owner[o_starts]
        self.center[owners[~o_any_sampled]] = -1
        self.center[g_owner[is_target]] = g_centre[is_target]

        # Kill every live incidence into a connected cluster: one removal
        # notification per incidence from the acting side, and the edge
        # goes dead for both endpoints.
        killed_slots = s_sorted[recorded[seg_of]]
        self.edge_alive[net.adj_edge_ids[killed_slots]] = False
        return MessageBlock(
            src=net.slot_owner[killed_slots],
            dst=net.adj[killed_slots],
            words=np.full(killed_slots.shape[0], _REMOVE_WORDS, dtype=np.int64),
            columns={
                "tag": np.full(killed_slots.shape[0], _TAG_REMOVE, dtype=np.int64),
                "center": np.full(killed_slots.shape[0], -1, dtype=np.int64),
                "sampled": np.zeros(killed_slots.shape[0], dtype=bool),
            },
        )

    def _final_exchange(self, net: ColumnarSimulator, inbox: MessageBlock) -> MessageBlock:
        self._process_inbox(net, inbox, learn_membership=False, set_pending=False)
        self.known_center[:] = -1
        self.known_sampled[:] = False
        clustered = np.flatnonzero(self.center >= 0)
        return net.broadcast_block(
            clustered,
            _FLOOD_WORDS,
            tag=np.full(clustered.shape[0], _TAG_FLOOD, dtype=np.int64),
            center=self.center[clustered],
            sampled=np.zeros(clustered.shape[0], dtype=bool),
        )

    def _final_decide(self, net: ColumnarSimulator, inbox: MessageBlock) -> None:
        self._process_inbox(net, inbox, learn_membership=False, set_pending=False)
        slot_mask = self.edge_alive[net.adj_edge_ids] & (self.known_center >= 0)
        _, _, _, _, g_min_slot, _, _ = self._cluster_groups(net, slot_mask)
        self._record_slots(net, g_min_slot)

    # -------------------------------------------------------------- #

    def round(
        self, net: ColumnarSimulator, round_number: int, inbox: MessageBlock
    ) -> Tuple[Optional[MessageBlock], bool]:
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
        """Sorted unique canonical keys ``lo * n + hi`` of the spanner pairs."""
        if not self.spanner_keys:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self.spanner_keys))
