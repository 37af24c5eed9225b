"""Incremental sparsification over edge streams.

All other entry points in the repo are batch-only; this module makes the
paper's machinery *incremental*.  A :class:`StreamingSparsifier` ingests
edge batches and maintains a compact state — the current t-bundle spanner
plus the reweighted survivors of Bernoulli sampling — so that at any
moment a spectral sparsifier of everything ingested so far can be
materialised (:meth:`~StreamingSparsifier.snapshot`) and certified
(:meth:`~StreamingSparsifier.certify`) without replaying the stream.

Design
------
* **Blocks, not batches, drive the work.**  ``ingest`` appends edges to a
  pending buffer; every ``compaction_interval`` ingested edges (counted
  cumulatively, independent of how the caller chops the stream into
  ``ingest`` calls) the earliest interval-many pending edges are folded
  into the retained state by one ``PARALLELSAMPLE``-style pass: a
  t-bundle spanner over (retained ∪ block) is kept whole, every edge
  outside it is kept with probability ``p`` at ``1/p`` times its weight.
  This is the streaming-clustering recipe of Baswana (cs/0611023) mapped
  onto the vectorised Baswana–Sen kernels — the per-block pass runs
  entirely on raw arrays (:func:`repro.spanners.bundle.bundle_select`),
  no per-edge Python loop.  The retained set stays ``O(bundle + interval)``,
  so the amortised cost per streamed edge is a constant number of
  vectorised operations.
* **Snapshots are split-invariant.**  Because compaction points depend
  only on the cumulative edge count, the state after ingesting a given
  edge sequence is bit-identical no matter how the sequence was split
  into ``ingest`` calls (default mode; windowing, decay and k-out
  presampling are batch-indexed by design and documented exceptions).
* **Batch parity.**  Compaction ``c`` draws from an RNG stream that is a
  pure function of ``(seed, c)``; compaction 0's stream is exactly
  ``as_rng(seed)`` — the stream the batch path consumes — so a stream
  whose first block is the whole graph reproduces
  :func:`repro.core.sample.parallel_sample` (and the golden-pinned
  :func:`repro.spanners.bundle.t_bundle_spanner` selection) bit for bit.
* **Windowed / decayed views.**  ``window=w`` keeps only edges from the
  last ``w`` ingest batches (older edges are evicted from state and
  reference alike); ``decay=gamma`` scales an edge arriving in batch
  ``a`` by ``gamma^(b - a)`` at current batch ``b`` (applied lazily, so
  recovery replay is bit-exact).
* **Resilient ingestion.**  With ``store=``, each batch is journaled
  *before* it is processed (:class:`~repro.streaming.journal.StreamJournal`
  inside a :class:`~repro.streaming.store.StreamStateStore`), so
  :meth:`~StreamingSparsifier.recover` rebuilds a crashed stream losing at
  most the one batch whose append was torn.  Each compaction's outcome is
  journaled after its batch, so recovery applies the outcomes it can
  verify instead of re-running the spanners.  Compaction work runs through
  the configured execution backend under an optional
  :class:`~repro.parallel.failure.FailurePolicy`, and retries are
  output-neutral because every compaction rebuilds its RNG from
  ``(seed, index)`` on each attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.spectral import ApproximationReport, approximation_report
from repro.api.result import UnifiedResult
from repro.core.certificates import ResistanceCertificate, certify_resistances
from repro.core.checkpoint import DurableIO
from repro.core.config import SparsifierConfig
from repro.core.sample import sample_nonbundle_edges
from repro.exceptions import CheckpointError, GraphError, SparsificationError, StreamingError
from repro.graphs.graph import Graph
from repro.graphs.kout import k_out_keep_probabilities, k_out_select
from repro.parallel.failure import FailurePolicy
from repro.resistance.solver_select import ResistanceSolveStats
from repro.spanners.bundle import bundle_select
from repro.streaming.journal import DEFAULT_SEGMENT_BYTES, StreamJournal, working_set_digest
from repro.streaming.store import StreamStateStore, _check_store_options
from repro.utils.rng import as_rng, fresh_entropy_seed
from repro.utils.validation import check_count, check_integer

__all__ = [
    "CompactionRecord",
    "IngestRecord",
    "StreamStats",
    "StreamSnapshot",
    "StreamCertificate",
    "StreamingSparsifier",
    "LEVEL_FANOUT",
    "compaction_rng",
]

# Each retained level holds LEVEL_FANOUT times the capacity of the level
# below it before overflowing into the next merge (LSM-style geometric
# growth: deeper levels hold older, already-resampled edges and are
# touched exponentially less often).
LEVEL_FANOUT = 4

# spawn_key tags partitioning the seed's stream space: compactions after
# the first, and per-batch k-out presampling.  Compaction 0 uses the bare
# ``as_rng(seed)`` stream for batch parity (see module docstring).
_COMPACTION_KEY = 1
_PRESAMPLE_KEY = 2


def compaction_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG stream compaction ``index`` draws from (pure in its inputs).

    Compaction 0 consumes exactly ``as_rng(seed)`` — the same stream the
    batch ``parallel_sample`` / ``t_bundle_spanner`` path uses — so a
    single-compaction stream is bit-identical to the batch construction.
    Later compactions use independent ``SeedSequence(seed, spawn_key=...)``
    children.  Workers rebuild the generator from ``(seed, index)`` on
    every attempt, which is what makes failure-policy retries
    output-neutral.
    """
    if index == 0:
        return as_rng(int(seed))
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_COMPACTION_KEY, int(index)))
    )


def _presample_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_PRESAMPLE_KEY, int(batch_index)))
    )


def _check_execution(
    config: Optional[SparsifierConfig], failure_policy: Optional[FailurePolicy]
) -> None:
    """Reject execution settings no stream can run with (caller errors, not damage)."""
    if config is not None and config.use_tree_bundle:
        raise StreamingError(
            "streaming ingestion maintains spanner bundles; "
            "use_tree_bundle is not supported"
        )
    if failure_policy is not None and failure_policy.on_error == "collect":
        raise StreamingError(
            "a stream cannot skip a failed compaction without diverging; "
            'use on_error="raise" or "retry"'
        )


def _compaction_worker(item: int, shared: Dict[str, Any]) -> Dict[str, Any]:
    """One PARALLELSAMPLE-style pass over the working edge arrays.

    Module-level (not a closure) so process backends can pickle it and
    fault-injection wrappers can intercept it.  Bundle selection consumes
    the compaction's stream via ``split_rng``, then the batch path's
    Bernoulli step (:func:`repro.core.sample.sample_nonbundle_edges`)
    continues on the same generator — the
    :func:`repro.core.sample.parallel_sample` draw order.
    """
    index = int(item)
    rng = compaction_rng(shared["seed"], index)
    _, bundle, built, exhausted = bundle_select(
        shared["num_vertices"],
        shared["u"],
        shared["v"],
        shared["w"],
        shared["t"],
        k=shared["k"],
        seed=rng,
    )
    kept, outside = sample_nonbundle_edges(int(shared["u"].shape[0]), bundle, rng, shared["p"])
    return {
        "bundle": bundle,
        "kept": kept,
        "outside": outside,
        "built": built,
        "exhausted": exhausted or outside == 0,
    }


@dataclass
class _Replay:
    """Journaled compaction outcomes offered to replay, and what became of them.

    The recovery ladder offers each replayed batch the outcomes journaled
    after it (keyed by compaction index); :meth:`take` hands one to the
    compaction with that index only when its working-set size and digest
    match, and otherwise counts the compaction as recomputed.
    """

    offered: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    reused: int = 0
    recomputed: int = 0
    notes: List[str] = field(default_factory=list)

    def offer(self, outcomes: List[Dict[str, Any]]) -> None:
        """Offer the outcomes journaled after the batch replayed next."""
        self.settle()
        self.offered = {outcome["index"]: outcome for outcome in outcomes}

    def settle(self) -> None:
        """Note every offered outcome that no replayed compaction took."""
        for index in sorted(self.offered):
            self.notes.append(f"journaled compaction {index} matched no replayed compaction")
        self.offered = {}

    def take(self, index: int, size: int, work_digest: str) -> Optional[Dict[str, Any]]:
        """The outcome to apply to compaction ``index``, or ``None`` to recompute it."""
        outcome = self.offered.pop(index, None)
        if outcome is not None and outcome["size"] == size and outcome["work_digest"] == work_digest:
            self.reused += 1
            return outcome
        if outcome is not None:
            self.notes.append(
                f"journaled compaction {index} does not match its working set; recomputed"
            )
        self.recomputed += 1
        return None


@dataclass(frozen=True)
class CompactionRecord:
    """Telemetry for one compaction pass.

    ``bundle_indices`` / ``kept_indices`` are positions into that
    compaction's *working set* (retained state followed by the consumed
    block, in ingest order).  For a stream whose first block is the whole
    input they therefore coincide with input-graph edge indices — which
    is how the golden parity tests pin the streaming path to the batch
    spanner.
    """

    index: int
    working_edges: int
    bundle_edges: int
    kept_edges: int
    outside_edges: int
    components_built: int
    exhausted: bool
    bundle_indices: np.ndarray
    kept_indices: np.ndarray


@dataclass(frozen=True)
class IngestRecord:
    """What one ``ingest`` call did."""

    batch_index: int
    edges: int
    edges_after_presample: int
    compactions_run: int
    evicted_edges: int

    # Round-record protocol (the engine/CLI print rounds generically).
    @property
    def round_index(self) -> int:
        return self.batch_index

    @property
    def input_edges(self) -> int:
        return self.edges

    @property
    def output_edges(self) -> int:
        return self.edges_after_presample


@dataclass(frozen=True)
class StreamStats:
    """Lightweight counters attached to snapshots (``UnifiedResult.native``).

    ``seed`` is the stream's *resolved* integer seed and ``auto_seeded``
    records whether it was drawn from OS entropy (``seed=None`` at
    construction).  Surfacing the resolved seed on every result is what
    makes auto-seeded runs reproducible after the fact: feed it back as
    ``seed=`` to replay the identical stream.
    """

    batches_ingested: int
    edges_ingested: int
    live_input_edges: int
    retained_edges: int
    pending_edges: int
    compactions: int
    evicted_edges: int
    presampled_away: int
    ingest_seconds: float
    seed: int = 0
    auto_seeded: bool = False


@dataclass(frozen=True)
class StreamSnapshot:
    """A materialised sparsifier of everything currently live in the stream.

    ``graph`` holds the retained edges (bundle at face weight, sampled
    survivors boosted ``1/p`` per surviving compaction) plus the pending
    edges that have not reached a compaction point yet (kept exactly).
    ``unified`` wraps the same graph in the engine's result model, so a
    snapshot drops into every comparison/reporting path a batch result
    can.
    """

    graph: Graph
    unified: UnifiedResult
    stats: StreamStats

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


@dataclass(frozen=True)
class StreamCertificate:
    """Quality measurement of one snapshot against the live exact graph.

    ``report`` carries the full :class:`~repro.analysis.spectral.ApproximationReport`
    quality gates (dense spectral certificate, quadratic-form and
    resistance probes, connectivity); ``resistances`` is the
    probe-pair certificate whose inner solves were routed through the
    blocked solver stack with ``solver`` — ``stats`` records those
    solves' iteration counts and any degradation-ladder fallbacks.
    """

    report: ApproximationReport
    resistances: ResistanceCertificate
    solver: str
    stats: ResistanceSolveStats
    batches_ingested: int
    reference_edges: int

    def holds(self, epsilon: float, slack: float = 1e-7) -> bool:
        """True when both certificates are consistent with ``(1 ± eps)``."""
        return self.report.certificate.holds(epsilon, slack=slack) and self.resistances.holds(
            epsilon, slack=slack
        )


class StreamingSparsifier:
    """Ingest edge batches, keep a sparsifier-sized state, snapshot on demand.

    Parameters
    ----------
    num_vertices:
        Vertex count of the streamed graph (fixed up front).
    config:
        :class:`~repro.core.config.SparsifierConfig`, the one home of the
        stream's algorithm settings: bundle size ``t =
        config.bundle_size(num_vertices)`` (``bundle_t``, or sized from
        ``epsilon``), Baswana–Sen ``k = config.spanner_k`` and sampling
        probability ``p = config.sampling_probability``, which a stream
        needs strictly below 1.  It also supplies the execution backend
        and the default solver.
    seed:
        Integer stream seed (a ``numpy`` Generator is accepted and
        collapsed to one draw; ``None`` draws fresh OS entropy).  The
        whole stream is deterministic given the seed and the batch
        sequence.
    window:
        Keep only edges from the last ``window`` ingest batches
        (``None`` = cumulative).
    decay:
        Exponential weight decay per batch in ``(0, 1]``; an edge from
        batch ``a`` weighs ``w * decay**(b - a)`` at current batch ``b``.
    compaction_interval:
        Ingested edges per compaction block (default
        ``max(4096, 2 * num_vertices)``).  Compaction points depend only
        on the cumulative count, which is what makes snapshots invariant
        to batch splits.
    kout_presample:
        When set, ingest batches carrying more than ``kout_presample *
        num_vertices`` edges are first reduced by a random k-out sample
        with Horvitz–Thompson reweighting
        (:mod:`repro.graphs.kout`) — the ultra-cheap dense-burst guard.
    store:
        Directory of a fresh :class:`~repro.streaming.store.StreamStateStore`.
        Every batch is journaled *before* processing, so a crash loses at
        most one batch; :meth:`recover` picks the stream back up.  Without
        ``snapshot_every`` the store is just that journal.
    snapshot_every / segment_bytes / keep_snapshots:
        Store cadence: snapshot the full state every ``snapshot_every``
        ingested batches (default: only on :meth:`checkpoint`), seal a
        journal segment past ``segment_bytes``, and keep the newest
        ``keep_snapshots`` snapshots.
    failure_policy:
        :class:`~repro.parallel.failure.FailurePolicy` governing the
        compaction work (``raise`` / ``retry``; ``collect`` is rejected —
        a stream cannot skip a compaction without diverging).

    Every stream keeps the exact live edge list (O(stream) memory), so
    :meth:`certify` can measure a snapshot against ground truth.
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        config: Optional[SparsifierConfig] = None,
        seed: Any = 0,
        window: Optional[int] = None,
        decay: Optional[float] = None,
        compaction_interval: Optional[int] = None,
        kout_presample: Optional[int] = None,
        levels: Optional[int] = None,
        level_capacity: Optional[int] = None,
        store: Optional[Union[str, Path]] = None,
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        failure_policy: Optional[FailurePolicy] = None,
        io: Optional[DurableIO] = None,
    ) -> None:
        try:
            self._n = check_integer(num_vertices, "num_vertices", minimum=0)
        except (TypeError, ValueError) as exc:
            raise GraphError(str(exc)) from None
        self._config = config if config is not None else SparsifierConfig()
        _check_execution(self._config, failure_policy)
        self._t = int(self._config.bundle_size(self._n))
        self._k = None if self._config.spanner_k is None else int(self._config.spanner_k)
        self._p = float(self._config.sampling_probability)
        if not 0 < self._p < 1:
            raise StreamingError(
                f"sampling probability must lie in (0, 1), got {self._p}"
            )
        self._auto_seeded = seed is None
        self._seed = self._normalize_seed(seed)
        self._window = None if window is None else check_count(window, "window", StreamingError)
        if decay is not None and not 0 < float(decay) <= 1:
            raise StreamingError(f"decay must lie in (0, 1], got {decay}")
        self._decay = None if decay is None or float(decay) == 1.0 else float(decay)
        self._interval = (
            max(4096, 2 * self._n)
            if compaction_interval is None
            else check_count(compaction_interval, "compaction_interval", StreamingError)
        )
        self._kout = (
            None
            if kout_presample is None
            else check_count(kout_presample, "kout_presample", StreamingError)
        )
        self._max_levels = 1 if levels is None else check_count(levels, "levels", StreamingError)
        self._level_capacity = (
            2 * self._interval
            if level_capacity is None
            else check_count(level_capacity, "level_capacity", StreamingError)
        )
        self._failure_policy = failure_policy

        # Retained state: LSM-style levels, each [u, v, w, b] arrays —
        # bundle edges at base weight plus sampled survivors at boosted
        # weight, tagged with their arrival batch.  Level 0 is the classic
        # retained pool; deeper levels hold older, already-resampled edges.
        self._levels: List[List[np.ndarray]] = [
            self._empty_level() for _ in range(self._max_levels)
        ]
        empty_i = np.array([], dtype=np.int64)
        empty_f = np.array([], dtype=np.float64)
        # Pending buffer: ingested edges not yet consumed by a compaction.
        self._pen_u, self._pen_v = empty_i.copy(), empty_i.copy()
        self._pen_w, self._pen_b = empty_f.copy(), empty_i.copy()
        self._exact: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._batch_sizes: List[int] = []
        self._batches_ingested = 0
        self._edges_ingested = 0
        self._compactions = 0
        self._evicted = 0
        self._presampled_away = 0
        self._ingest_seconds = 0.0
        self.records: List[CompactionRecord] = []
        # Set by the recovery ladder while it replays the journal.
        self._replay: Optional[_Replay] = None

        _check_store_options(segment_bytes, keep_snapshots)
        if snapshot_every is not None and store is None:
            raise StreamingError("snapshot_every requires store=")
        self._snapshot_every = (
            None
            if snapshot_every is None
            else check_count(snapshot_every, "snapshot_every", StreamingError)
        )
        self._journal: Optional[StreamJournal] = None
        self._store: Optional[StreamStateStore] = None
        if store is not None:
            if StreamStateStore.has_content(store):
                raise CheckpointError(
                    f"stream store {store} already has content; use "
                    "StreamingSparsifier.recover() to continue it or pass a "
                    "fresh path"
                )
            self._store = StreamStateStore(
                store,
                segment_bytes=segment_bytes,
                keep_snapshots=keep_snapshots,
                io=io,
            )
            self._journal = self._store.create_journal(
                self._journal_params(), self._snapshot_every
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _empty_level() -> List[np.ndarray]:
        return [
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            np.array([], dtype=np.int64),
        ]

    @staticmethod
    def _normalize_seed(seed: Any) -> int:
        if isinstance(seed, np.random.Generator):
            # Batch fan-outs hand methods pre-split generators; collapse
            # to one draw so the stream stays journal-able as an int.
            return int(seed.integers(0, 2**63 - 1))
        if seed is None:
            # The one sanctioned entropy draw: the resulting seed is
            # recorded (journal header, StreamStats.seed), so even an
            # auto-seeded stream recovers bit-exactly.
            return fresh_entropy_seed()
        return int(seed)

    def _journal_params(self) -> Dict[str, Any]:
        return {
            "num_vertices": self._n,
            "t": self._t,
            "k": self._k,
            "sampling_probability": self._p,
            "seed": self._seed,
            "auto_seeded": self._auto_seeded,
            "window": self._window,
            "decay": self._decay,
            "compaction_interval": self._interval,
            "kout_presample": self._kout,
            "levels": self._max_levels,
            "level_capacity": self._level_capacity,
        }

    @classmethod
    def from_stream_params(
        cls,
        params: Dict[str, Any],
        *,
        config: Optional[SparsifierConfig] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> "StreamingSparsifier":
        """Build a fresh, unattached stream from pinned journal parameters.

        The pinned ``t``, ``k`` and ``sampling_probability`` replace the
        ``bundle_t``, ``spanner_k`` and ``sampling_probability`` of
        ``config`` (the default config when ``None``).  The parameters come
        off disk, so missing or out-of-range values, including ones the
        config refuses, are damage, raised as :class:`CheckpointError` for
        the recovery ladder; a bad ``config`` / ``failure_policy`` is the
        caller's error and stays a :class:`StreamingError`.
        """
        _check_execution(config, failure_policy)
        try:
            pinned = (config if config is not None else SparsifierConfig()).with_overrides(
                bundle_t=params["t"],
                spanner_k=params["k"],
                sampling_probability=params["sampling_probability"],
            )
            stream = cls(
                params["num_vertices"],
                config=pinned,
                seed=params["seed"],
                window=params["window"],
                decay=params["decay"],
                compaction_interval=params["compaction_interval"],
                kout_presample=params["kout_presample"],
                levels=params.get("levels"),
                level_capacity=params.get("level_capacity"),
                failure_policy=failure_policy,
            )
        except (
            KeyError, TypeError, ValueError, GraphError, SparsificationError, StreamingError
        ) as exc:
            raise CheckpointError(f"pinned stream parameters are unusable: {exc!r}") from exc
        # The header pins the *resolved* seed, so the rebuilt stream is
        # constructed from an explicit int; restore the provenance flag
        # (absent in pre-auto_seeded journals → False).
        stream._auto_seeded = bool(params.get("auto_seeded", False))
        return stream

    @classmethod
    def recover(
        cls,
        store: Union[str, Path],
        *,
        config: Optional[SparsifierConfig] = None,
        failure_policy: Optional[FailurePolicy] = None,
        snapshot_every: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = 2,
        io: Optional[DurableIO] = None,
    ) -> Tuple["StreamingSparsifier", "Any"]:
        """Recover a stream from its durable state store after a crash.

        Walks the recovery ladder (latest valid snapshot → journal suffix
        replay → valid-prefix salvage of a corrupt segment), quarantining
        damaged files, and returns ``(stream, RecoveryReport)``.  The
        report says whether the restored state is bit-exact with respect
        to the batches whose appends completed, or lossy (and what was
        lost) — recovery never silently diverges.  ``snapshot_every=None``
        keeps the cadence the journal records; a value replaces it.
        """
        return StreamStateStore.recover(
            store,
            config=config,
            failure_policy=failure_policy,
            snapshot_every=snapshot_every,
            segment_bytes=segment_bytes,
            keep_snapshots=keep_snapshots,
            io=io,
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def seed(self) -> int:
        """The resolved integer seed every stream draw derives from.

        For auto-seeded streams (``seed=None``) this is the recorded
        entropy draw — pass it back as ``seed=`` to reproduce the run.
        """
        return self._seed

    @property
    def t(self) -> int:
        return self._t

    @property
    def batches_ingested(self) -> int:
        return self._batches_ingested

    @property
    def edges_ingested(self) -> int:
        return self._edges_ingested

    @property
    def compactions(self) -> int:
        return self._compactions

    @property
    def pending_edges(self) -> int:
        return int(self._pen_u.shape[0])

    @property
    def retained_edges(self) -> int:
        return int(sum(level[0].shape[0] for level in self._levels))

    @property
    def level_sizes(self) -> List[int]:
        """Edge count per retained level (level 0 first)."""
        return [int(level[0].shape[0]) for level in self._levels]

    @property
    def live_input_edges(self) -> int:
        """Exact edges currently in scope (window-aware, pre-presampling)."""
        if self._window is None:
            return self._edges_ingested
        return int(sum(self._batch_sizes[-self._window:]))

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest(self, edges: Any, weights: Any = None) -> IngestRecord:
        """Fold one batch of edges into the stream.

        ``edges`` is an ``(m, 2)`` integer array of endpoints (any
        orientation; self-loops rejected) or an ``(m, 3)`` array with
        weights in the third column; ``weights`` optionally supplies the
        weights separately (default 1.0).  Returns an
        :class:`IngestRecord` describing what the call did.
        """
        u, v, w = self._validate_batch(edges, weights)
        batch = self._batches_ingested
        if self._journal is not None:
            self._journal.append_batch(batch, u, v, w)
        start = time.perf_counter()
        self._batches_ingested += 1
        self._batch_sizes.append(int(u.shape[0]))
        self._edges_ingested += int(u.shape[0])
        self._exact.append((batch, u, v, w))
        evicted = self._evict_expired(batch)

        pu, pv, pw = u, v, w
        if self._kout is not None and u.shape[0] > self._kout * max(self._n, 1):
            pu, pv, pw = self._presample(batch, u, v, w)
            self._presampled_away += int(u.shape[0] - pu.shape[0])
        self._pen_u = np.concatenate([self._pen_u, pu])
        self._pen_v = np.concatenate([self._pen_v, pv])
        self._pen_w = np.concatenate([self._pen_w, pw])
        self._pen_b = np.concatenate(
            [self._pen_b, np.full(pu.shape[0], batch, dtype=np.int64)]
        )

        compactions_run = 0
        while self._pen_u.shape[0] >= self._interval:
            self._compact(self._interval)
            compactions_run += 1
        self._ingest_seconds += time.perf_counter() - start
        if (
            self._store is not None
            and self._snapshot_every is not None
            and self._batches_ingested - self._store.last_snapshot_batch
            >= self._snapshot_every
        ):
            self._store.checkpoint(self)
        return IngestRecord(
            batch_index=batch,
            edges=int(u.shape[0]),
            edges_after_presample=int(pu.shape[0]),
            compactions_run=compactions_run,
            evicted_edges=evicted,
        )

    def flush(self) -> Optional[CompactionRecord]:
        """Force-compact the pending buffer (one pass over the tail).

        Consumes the next compaction index, so — unlike plain ingestion —
        the resulting state depends on *when* flush was called.  Returns
        the compaction record, or ``None`` when nothing was pending.

        Raises :class:`StreamingError` on a stream with a store: the
        journal records ingested batches only, so recovery could not
        replay the flush and would rebuild a different state.
        """
        if self._store is not None:
            raise StreamingError(
                "flush() is refused on a stream with a store: the journal cannot "
                "replay a flush, so recovery would rebuild a different state"
            )
        if self._pen_u.shape[0] == 0:
            return None
        self._compact(int(self._pen_u.shape[0]))
        return self.records[-1]

    def checkpoint(self) -> Path:
        """Force a durable snapshot now (requires a store); returns its manifest.

        Also truncates journal segments wholly covered by the oldest
        retained snapshot, which is what bounds future recovery replay to
        the recent suffix.
        """
        if self._store is None:
            raise StreamingError(
                "checkpoint() requires the stream to be built with store="
            )
        return self._store.checkpoint(self)

    # ------------------------------------------------------------------ #
    # Durable state (consumed by repro.streaming.store)
    # ------------------------------------------------------------------ #

    def _state_payload(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Full sampler state as ``(counters, named arrays)``.

        Everything future output depends on is here: the leveled retained
        pools, the pending buffer, the exact-reference pools, batch sizes,
        and the counters that position the RNG schedule (``compactions``)
        and the batch index.  The ``records`` telemetry list is
        deliberately *not* persisted — it describes past passes, nothing
        downstream replays it.
        """
        arrays: Dict[str, np.ndarray] = {}
        for i, level in enumerate(self._levels):
            arrays[f"level{i}/u"] = level[0]
            arrays[f"level{i}/v"] = level[1]
            arrays[f"level{i}/w"] = level[2]
            arrays[f"level{i}/b"] = level[3]
        arrays["pending/u"] = self._pen_u
        arrays["pending/v"] = self._pen_v
        arrays["pending/w"] = self._pen_w
        arrays["pending/b"] = self._pen_b
        arrays["batch_sizes"] = np.asarray(self._batch_sizes, dtype=np.int64)
        exact_batches: List[int] = []
        for j, (batch, u, v, w) in enumerate(self._exact):
            arrays[f"exact{j}/u"] = u
            arrays[f"exact{j}/v"] = v
            arrays[f"exact{j}/w"] = w
            exact_batches.append(int(batch))
        counters = {
            "batches_ingested": int(self._batches_ingested),
            "edges_ingested": int(self._edges_ingested),
            "compactions": int(self._compactions),
            "evicted": int(self._evicted),
            "presampled_away": int(self._presampled_away),
            "ingest_seconds": float(self._ingest_seconds),
            "num_levels": len(self._levels),
            "exact_batches": exact_batches,
        }
        return counters, arrays

    def _restore_state(
        self, counters: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Overwrite this (fresh) stream's state with a snapshot payload."""
        try:
            num_levels = int(counters["num_levels"])
            if num_levels != self._max_levels:
                raise CheckpointError(
                    f"snapshot holds {num_levels} retained levels but the "
                    f"stream parameters pin {self._max_levels}"
                )
            self._levels = [
                [
                    arrays[f"level{i}/u"],
                    arrays[f"level{i}/v"],
                    arrays[f"level{i}/w"],
                    arrays[f"level{i}/b"],
                ]
                for i in range(num_levels)
            ]
            self._pen_u = arrays["pending/u"]
            self._pen_v = arrays["pending/v"]
            self._pen_w = arrays["pending/w"]
            self._pen_b = arrays["pending/b"]
            self._batch_sizes = [int(size) for size in arrays["batch_sizes"]]
            self._exact = [
                (int(batch), arrays[f"exact{j}/u"], arrays[f"exact{j}/v"], arrays[f"exact{j}/w"])
                for j, batch in enumerate(counters["exact_batches"])
            ]
            self._batches_ingested = int(counters["batches_ingested"])
            self._edges_ingested = int(counters["edges_ingested"])
            self._compactions = int(counters["compactions"])
            self._evicted = int(counters["evicted"])
            self._presampled_away = int(counters["presampled_away"])
            self._ingest_seconds = float(counters.get("ingest_seconds", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"snapshot payload is missing or has a malformed field {exc} — "
                "incompatible or damaged snapshot"
            ) from exc
        self.records = []

    def _validate_batch(
        self, edges: Any, weights: Any
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        arr = np.asarray(edges)
        if arr.size == 0:  # an empty batch still advances the batch index
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise GraphError(
                "ingest expects an (m, 2) [u v] or (m, 3) [u v w] edge array, "
                f"got shape {arr.shape}"
            )
        if arr.shape[1] == 3:
            if weights is not None:
                raise GraphError(
                    "weights passed both inside the edge array and separately"
                )
            weights = arr[:, 2]
        u_raw, v_raw = arr[:, 0], arr[:, 1]
        u = np.asarray(u_raw, dtype=np.int64)
        v = np.asarray(v_raw, dtype=np.int64)
        if not (np.array_equal(u, u_raw) and np.array_equal(v, v_raw)):
            raise GraphError("edge endpoints must be integers")
        m = u.shape[0]
        if weights is None:
            w = np.ones(m, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (m,):
                raise GraphError(
                    f"weights must have shape ({m},), got {w.shape}"
                )
        if m == 0:
            return u, v, w.astype(np.float64)
        if u.min(initial=0) < 0 or v.min(initial=0) < 0 or max(
            u.max(initial=-1), v.max(initial=-1)
        ) >= self._n:
            raise GraphError(
                f"edge endpoints must lie in [0, {self._n}); got values outside"
            )
        if np.any(u == v):
            raise GraphError("self-loops are not allowed in ingested batches")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise GraphError("edge weights must be finite and positive")
        return np.minimum(u, v), np.maximum(u, v), w

    def _presample(
        self, batch: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k-out reduce a dense burst, Horvitz–Thompson reweighted."""
        rng = _presample_rng(self._seed, batch)
        kept = k_out_select(self._n, u, v, self._kout, rng)
        probabilities = k_out_keep_probabilities(self._n, u, v, self._kout)
        return u[kept], v[kept], w[kept] / probabilities[kept]

    def _evict_expired(self, batch: int) -> int:
        """Drop state/reference edges outside the sliding window."""
        if self._window is None:
            return 0
        horizon = batch - self._window  # live: batch id > horizon
        evicted = 0
        for level in self._levels:
            ret_mask = level[3] > horizon
            if not ret_mask.all():
                evicted += int(ret_mask.shape[0] - ret_mask.sum())
                level[0] = level[0][ret_mask]
                level[1] = level[1][ret_mask]
                level[2] = level[2][ret_mask]
                level[3] = level[3][ret_mask]
        pen_mask = self._pen_b > horizon
        if not pen_mask.all():
            evicted += int(pen_mask.shape[0] - pen_mask.sum())
            self._pen_u = self._pen_u[pen_mask]
            self._pen_v = self._pen_v[pen_mask]
            self._pen_w = self._pen_w[pen_mask]
            self._pen_b = self._pen_b[pen_mask]
        if self._exact:
            self._exact = [rec for rec in self._exact if rec[0] > horizon]
        self._evicted += evicted
        return evicted

    def _effective_weights(self, w: np.ndarray, batch_ids: np.ndarray) -> np.ndarray:
        """Apply lazy exponential decay relative to the latest batch."""
        if self._decay is None or w.shape[0] == 0:
            return w
        now = self._batches_ingested - 1
        return w * np.power(self._decay, (now - batch_ids).astype(np.float64))

    def _sample_pass(
        self,
        work_u: np.ndarray,
        work_v: np.ndarray,
        work_w: np.ndarray,
        work_b: np.ndarray,
    ) -> List[np.ndarray]:
        """One PARALLELSAMPLE pass over a working set: bundle + survivors.

        Consumes the next compaction RNG index and appends a
        :class:`CompactionRecord`; shared by the level-0 compaction and
        level promotions so both stay deterministic and retry-neutral.
        With a store the outcome is journaled after the batch that
        triggered it; during recovery a journaled outcome whose index,
        working-set size and working-set digest match is applied instead
        of running the pass (same state update, same record).
        """
        eff_w = self._effective_weights(work_w, work_b)
        if self._decay is not None:
            alive = eff_w > 0.0  # underflowed weights are numerically dead
            if not alive.all():
                self._evicted += int(alive.shape[0] - alive.sum())
                work_u, work_v = work_u[alive], work_v[alive]
                work_w, work_b = work_w[alive], work_b[alive]
                eff_w = eff_w[alive]

        index = self._compactions
        size = int(work_u.shape[0])
        result: Optional[Dict[str, Any]] = None
        work_digest = (
            working_set_digest(work_u, work_v, eff_w, work_b)
            if self._journal is not None or self._replay is not None
            else ""
        )
        if self._replay is not None:
            result = self._replay.take(index, size, work_digest)
        if result is None:
            shared = {
                "seed": self._seed,
                "num_vertices": self._n,
                "u": work_u,
                "v": work_v,
                "w": eff_w,  # selection sees decayed weights; state keeps base
                "t": self._t,
                "k": self._k,
                "p": self._p,
            }
            backend = self._config.execution_backend()
            result = backend.map(
                _compaction_worker, [index], shared=shared, policy=self._failure_policy
            )[0]
            if self._journal is not None:
                self._journal.append_compaction(index, size, work_digest, result)

        bundle = result["bundle"]
        kept = result["kept"]
        multiplier = 1.0 / self._p
        self._compactions += 1
        self.records.append(
            CompactionRecord(
                index=index,
                working_edges=size,
                bundle_edges=int(bundle.shape[0]),
                kept_edges=int(kept.shape[0]),
                outside_edges=int(result["outside"]),
                components_built=int(result["built"]),
                exhausted=bool(result["exhausted"]),
                bundle_indices=bundle,
                kept_indices=kept,
            )
        )
        return [
            np.concatenate([work_u[bundle], work_u[kept]]),
            np.concatenate([work_v[bundle], work_v[kept]]),
            np.concatenate([work_w[bundle], work_w[kept] * multiplier]),
            np.concatenate([work_b[bundle], work_b[kept]]),
        ]

    def _compact(self, take: int) -> None:
        """Fold the earliest ``take`` pending edges into level 0.

        Only level 0 participates in the routine pass — deeper levels hold
        already-resampled older edges and are only re-sampled when an
        overflow promotes a level into them (:meth:`_promote`), which is
        what stops long streams from re-sampling their whole history on
        every compaction.  With ``levels=1`` (the default) there is a
        single level and the behaviour is the classic, parity-pinned one.
        """
        level0 = self._levels[0]
        work_u = np.concatenate([level0[0], self._pen_u[:take]])
        work_v = np.concatenate([level0[1], self._pen_v[:take]])
        work_w = np.concatenate([level0[2], self._pen_w[:take]])
        work_b = np.concatenate([level0[3], self._pen_b[:take]])
        self._pen_u = self._pen_u[take:]
        self._pen_v = self._pen_v[take:]
        self._pen_w = self._pen_w[take:]
        self._pen_b = self._pen_b[take:]
        self._levels[0] = self._sample_pass(work_u, work_v, work_w, work_b)
        self._promote()

    def _promote(self) -> None:
        """Merge overflowing levels downward, re-sampling only what moved.

        Level ``i`` overflows at ``level_capacity * LEVEL_FANOUT**i``
        edges; its contents are merged into level ``i+1`` by one sampling
        pass (consuming the next compaction index, so the schedule stays a
        pure function of the ingested sequence) and level ``i`` empties.
        The deepest level is uncapped.  Ascending order lets a promotion
        cascade in a single sweep.
        """
        for i in range(self._max_levels - 1):
            capacity = self._level_capacity * (LEVEL_FANOUT**i)
            if self._levels[i][0].shape[0] <= capacity:
                continue
            merged_u = np.concatenate([self._levels[i + 1][0], self._levels[i][0]])
            merged_v = np.concatenate([self._levels[i + 1][1], self._levels[i][1]])
            merged_w = np.concatenate([self._levels[i + 1][2], self._levels[i][2]])
            merged_b = np.concatenate([self._levels[i + 1][3], self._levels[i][3]])
            self._levels[i + 1] = self._sample_pass(
                merged_u, merged_v, merged_w, merged_b
            )
            self._levels[i] = self._empty_level()

    # ------------------------------------------------------------------ #
    # Snapshot / certification
    # ------------------------------------------------------------------ #

    def _live_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = np.concatenate([level[0] for level in self._levels] + [self._pen_u])
        v = np.concatenate([level[1] for level in self._levels] + [self._pen_v])
        w = self._effective_weights(
            np.concatenate([level[2] for level in self._levels] + [self._pen_w]),
            np.concatenate([level[3] for level in self._levels] + [self._pen_b]),
        )
        if self._decay is not None and w.shape[0]:
            alive = w > 0.0
            u, v, w = u[alive], v[alive], w[alive]
        return u, v, w

    def _stats(self) -> StreamStats:
        return StreamStats(
            batches_ingested=self._batches_ingested,
            edges_ingested=self._edges_ingested,
            live_input_edges=self.live_input_edges,
            retained_edges=self.retained_edges,
            pending_edges=self.pending_edges,
            compactions=self._compactions,
            evicted_edges=self._evicted,
            presampled_away=self._presampled_away,
            ingest_seconds=self._ingest_seconds,
            seed=self._seed,
            auto_seeded=self._auto_seeded,
        )

    def snapshot(self) -> StreamSnapshot:
        """Materialise the current sparsifier (pure: does not mutate state).

        The graph holds the retained state plus pending edges; repeated
        snapshots without intervening ``ingest`` calls are identical, and
        in the default (unwindowed, undecayed, unpresampled) mode the
        snapshot after a given edge sequence is bit-identical no matter
        how the sequence was split into batches.
        """
        u, v, w = self._live_arrays()
        graph = Graph._from_trusted(self._n, u, v, w)
        stats = self._stats()
        unified = UnifiedResult(
            method="streaming",
            sparsifier=graph,
            input_edges=self.live_input_edges,
            output_edges=graph.num_edges,
            wall_time_seconds=self._ingest_seconds,
            native=stats,
        )
        return StreamSnapshot(graph=graph, unified=unified, stats=stats)

    def reference_graph(self) -> Graph:
        """The exact live graph (window/decay applied) — certification ground truth."""
        if not self._exact:
            return Graph.empty(self._n)
        u = np.concatenate([rec[1] for rec in self._exact])
        v = np.concatenate([rec[2] for rec in self._exact])
        w = np.concatenate([rec[3] for rec in self._exact])
        b = np.concatenate(
            [np.full(rec[1].shape[0], rec[0], dtype=np.int64) for rec in self._exact]
        )
        w = self._effective_weights(w, b)
        if self._decay is not None and w.shape[0]:
            alive = w > 0.0
            u, v, w = u[alive], v[alive], w[alive]
        return Graph._from_trusted(self._n, u, v, w)

    def certify(
        self,
        *,
        num_pairs: int = 16,
        num_vectors: int = 32,
        seed: Any = 0,
        solver: Optional[str] = None,
        snapshot: Optional[StreamSnapshot] = None,
    ) -> StreamCertificate:
        """Measure the current snapshot against the exact live graph.

        Runs the full :func:`~repro.analysis.spectral.approximation_report`
        quality gates plus a probe-pair resistance certificate whose
        inner Laplacian solves are routed through the blocked solver
        stack (``solver="cg"|"chain"``, default the config's);
        the returned certificate carries the
        :class:`~repro.resistance.solver_select.ResistanceSolveStats` so
        degraded solves are auditable.  The resistance certificate runs
        once: the report's resistance fields are copied from it.
        """
        reference = self.reference_graph()
        snap = snapshot if snapshot is not None else self.snapshot()
        chosen = self._config.solver if solver is None else solver
        stats = ResistanceSolveStats(solver=chosen)
        report = approximation_report(
            reference,
            snap.graph,
            num_vectors=num_vectors,
            num_pairs=num_pairs,
            seed=seed,
            include_resistances=False,
        )
        resistances = certify_resistances(
            reference,
            snap.graph,
            num_pairs=num_pairs,
            seed=seed,
            solver=chosen,
            stats=stats,
        )
        return StreamCertificate(
            report=replace(
                report,
                resistance_ratio_min=resistances.ratio_min,
                resistance_ratio_max=resistances.ratio_max,
                num_resistance_pairs_used=resistances.num_pairs_used,
            ),
            resistances=resistances,
            solver=chosen,
            stats=stats,
            batches_ingested=self._batches_ingested,
            reference_edges=reference.num_edges,
        )
