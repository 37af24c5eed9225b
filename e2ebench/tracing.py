"""Span tracing from outside the library, and the per-layer metrics it yields.

:func:`installed` swaps each layer's public entry points for wrappers at
the place the callers look them up (a module attribute or a class
attribute) and restores them afterwards; nothing under ``src/`` changes.
A wrapper records a span (name, layer, start, end, parent, op and op id)
and reads counts off the returned object: the PRAM tracker breakdown of
each sampling round, ``BundleResult``, ``CompactionRecord``,
``BatchSolveResult``, ``RecoveryReport`` and ``DistributedCost``.  Spans
stay in memory and are written once, when the run ends.

A span's self time is its duration minus its children's.  Layers are
named after the package's modules: ``sparsify`` (``api`` +
``core.sparsify``), ``sample`` (``core.sample``), ``spanners``,
``graphs``, ``resistance``, ``linalg``, ``streaming`` and ``congest``
(``parallel.congest`` and the distributed drivers).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.checkpoint import DurableIO
from repro.graphs.graph import Graph
from repro.parallel.pram import PRAMTracker
from repro.streaming.journal import StreamJournal
from repro.streaming.sparsifier import StreamingSparsifier
from repro.streaming.store import StreamStateStore

Extract = Callable[[tuple, dict, Any, Any], Dict[str, Any]]


class Tracer:
    """In-memory span recorder; spans outside an op are not recorded."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._op_id = 0

    @contextlib.contextmanager
    def op(self, name: str) -> Iterator[None]:
        self._op = name
        self._op_id += 1
        index = self._open(f"op.{name}", "op", cpu=False)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _open(self, name: str, layer: str, cpu: bool) -> int:
        span = {
            "index": len(self.spans), "name": name, "layer": layer,
            "op": self._op, "op_id": self._op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(), "end_ns": None, "attrs": {},
        }
        if cpu:
            span["cpu_start_ns"] = time.process_time_ns()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span["end_ns"] = time.perf_counter_ns()
        if "cpu_start_ns" in span:
            span["cpu_end_ns"] = time.process_time_ns()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        extract: Optional[Extract] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        cpu: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._op is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            index = tracer._open(name, layer, cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if extract is not None:
                tracer.spans[index]["attrs"].update(extract(args, kwargs, result, state))
            return result

        return wrapper

    def wrap_counter(self, fn: Callable, key: str, size: Callable[[tuple], int]) -> Callable:
        """Count bytes on the innermost open span; no span of its own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._stack:
                attrs = tracer.spans[tracer._stack[-1]]["attrs"]
                attrs[key] = attrs.get(key, 0) + size(args)
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------- #
# What to wrap, and what to read off each result.
# ---------------------------------------------------------------------- #


def _inject_tracker(args: tuple, kwargs: dict) -> None:
    # Callers that pass no tracker get a private one so the PRAM label
    # breakdown can be read; trackers only accumulate costs.
    if kwargs.get("tracker") is None:
        kwargs["tracker"] = PRAMTracker()


def _labels(kwargs: dict) -> Dict[str, float]:
    return {label: cost.work for label, cost in kwargs["tracker"].breakdown().items()}


def _sparsify_result(args, kwargs, r, _):
    return {"rounds": len(r.rounds), "pram_work": r.cost.work, "pram_depth": r.cost.depth}


def _sample_result(args, kwargs, r, _):
    return {
        "labels": _labels(kwargs),
        "outside_edges": r.input_edges - int(r.bundle_edge_indices.size),
        "kept_edges": int(r.sampled_edge_indices.size),
    }


def _bundle_result(args, kwargs, r, _):
    return {"input_edges": args[0].num_edges, "bundle_edges": r.num_edges, "components": r.t}


def _bundle_select_result(args, kwargs, r, _):
    _, bundle, built, _ = r
    return {"input_edges": len(args[1]), "bundle_edges": int(bundle.size),
            "components": built, "labels": _labels(kwargs)}


def _distributed_result(args, kwargs, r, _):
    return {"input_edges": r.input_edges, "output_edges": r.output_edges}


def _distributed_bundle_result(args, kwargs, r, _):
    return {"components": r.components_built, "messages": r.cost.messages,
            "max_words": r.cost.max_message_words}


def _coalesce_result(args, kwargs, r, _):
    return {"merged": args[0].num_edges - r.num_edges}


def _certify_result(args, kwargs, r, _):
    stats = kwargs.get("stats")
    return {"fallbacks": len(stats.fallbacks) if stats is not None else 0,
            "eps_refuted": r.epsilon_refuted_below}


def _solve_result(args, kwargs, r, _):
    return {
        "columns": r.num_columns, "iters": int(r.iterations.sum()),
        "iters_max": int(r.iterations.max(initial=0)), "matvecs": int(r.matvecs),
        "work": float(r.work), "unconverged": int((~r.converged).sum()),
    }


def _records_before(args, kwargs):
    return len(args[0].records)


def _ingest_result(args, kwargs, r, before):
    new = args[0].records[before:]
    return {
        "edges": r.edges, "compactions": len(new),
        "working_edges": sum(c.working_edges for c in new),
        "compacted_bundle_edges": sum(c.bundle_edges for c in new),
    }


def _recover_result(args, kwargs, r, _):
    report = r[1]
    return {"restored": report.batches_restored, "replayed": report.batches_replayed,
            "lost": report.batches_lost}


# (owner, attribute, span name, layer, extract, before, record cpu time)
_WRAPS = (
    ("repro", "sparsify", "api.sparsify", "sparsify", None, None, False),
    ("repro.core.methods", "parallel_sparsify", "core.parallel_sparsify", "sparsify",
     _sparsify_result, None, False),
    ("repro.core.sparsify", "parallel_sample", "core.parallel_sample", "sample",
     _sample_result, _inject_tracker, False),
    ("repro.core.sample", "assemble_sample_output", "core.assemble_sample_output", "sample",
     None, None, False),
    ("repro.core.sample", "t_bundle_spanner", "spanners.t_bundle_spanner", "spanners",
     _bundle_result, None, False),
    ("repro.streaming.sparsifier", "bundle_select", "spanners.bundle_select", "spanners",
     _bundle_select_result, _inject_tracker, False),
    (Graph, "coalesce", "graphs.coalesce", "graphs", _coalesce_result, None, False),
    (Graph, "laplacian", "graphs.laplacian", "graphs", None, None, False),
    ("repro.core.certificates", "connected_components", "graphs.connected_components",
     "graphs", None, None, False),
    ("repro.resistance.exact", "connected_components", "graphs.connected_components",
     "graphs", None, None, False),
    ("repro.core.certificates", "certify_resistances", "resistance.certify_resistances",
     "resistance", _certify_result, None, False),
    ("repro.core.certificates", "effective_resistances_of_pairs",
     "resistance.effective_resistances_of_pairs", "resistance", None, None, False),
    ("repro.resistance.solver_select", "laplacian_solve_many", "linalg.laplacian_solve_many",
     "linalg", _solve_result, None, False),
    ("repro.core.methods", "distributed_parallel_sparsify",
     "congest.distributed_parallel_sparsify", "congest", _distributed_result, None, False),
    ("repro.core.distributed_sparsify", "distributed_bundle_spanner",
     "congest.distributed_bundle_spanner", "congest", _distributed_bundle_result, None, False),
    (StreamingSparsifier, "ingest", "streaming.ingest", "streaming",
     _ingest_result, _records_before, False),
    (StreamJournal, "append_batch", "streaming.journal_append", "streaming", None, None, True),
    (StreamStateStore, "checkpoint", "streaming.checkpoint", "streaming", None, None, True),
    ("repro.streaming.store", "load_snapshot", "streaming.load_snapshot", "streaming",
     None, None, True),
    (StreamStateStore, "recover", "streaming.recover", "streaming", _recover_result, None, False),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    undo = []
    try:
        for owner, attr, name, layer, extract, before, cpu in _WRAPS:
            target = importlib.import_module(owner) if isinstance(owner, str) else owner
            original = target.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    tracer.wrap(original.__func__, name, layer, extract, before, cpu)
                )
            else:
                wrapped = tracer.wrap(original, name, layer, extract, before, cpu)
            setattr(target, attr, wrapped)
            undo.append((target, attr, original))
        for attr, key, size in (
            ("append_line", "journal_bytes", lambda a: len(a[2].encode("utf-8"))),
            ("write_bytes", "snapshot_bytes", lambda a: len(a[2])),
        ):
            original = DurableIO.__dict__[attr]
            setattr(DurableIO, attr, tracer.wrap_counter(original, key, size))
            undo.append((DurableIO, attr, original))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# ---------------------------------------------------------------------- #
# Per-op layer metrics
# ---------------------------------------------------------------------- #

_LABELS = {
    "scan_work": ("spanner/scan-edges",),
    "group_min_work": ("spanner/group-min",),
    "decisions_work": ("spanner/vertex-decisions",),
    "remove_covered_work": ("spanner/remove-covered",),
    "peel_work": ("bundle/peel-edges",),
    "phase2_work": ("spanner/phase2",),
    "cluster_sample_work": ("spanner/sample-clusters", "spanner/propagate-sampling"),
    "assemble_work": ("bundle/assemble",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class OpSpans:
    """The spans of one op call, with durations and self times in seconds."""

    def __init__(self, spans: List[Dict[str, Any]]) -> None:
        self.spans = spans
        self.root = next(s for s in spans if s["name"].startswith("op."))
        children: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += _seconds(s)
        self.self_s = {s["index"]: _seconds(s) - children[s["index"]] for s in spans}
        self.labels: Dict[str, float] = defaultdict(float)
        for s in spans:
            for label, work in s["attrs"].get("labels", {}).items():
                self.labels[label] += work

    def named(self, *names: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] in names]

    def duration(self, *names: str) -> float:
        return sum(_seconds(s) for s in self.named(*names))

    def attr(self, key: str, *names: str) -> float:
        spans = self.named(*names) if names else self.spans
        return sum(s["attrs"].get(key, 0) for s in spans)

    def attr_max(self, key: str, name: str) -> float:
        return float(max((s["attrs"].get(key, 0) for s in self.named(name)), default=0))

    def layer_self(self, layer: str, *names: str) -> float:
        return sum(
            self.self_s[s["index"]] for s in self.spans
            if s["layer"] == layer and (not names or s["name"] in names)
        )

    def io_wait(self) -> float:
        return sum(
            max(0.0, _seconds(s) - (s["cpu_end_ns"] - s["cpu_start_ns"]) / 1e9)
            for s in self.spans if "cpu_start_ns" in s
        )

    @property
    def total(self) -> float:
        return _seconds(self.root)

    @property
    def outside(self) -> float:
        return self.self_s[self.root["index"]]


def _seconds(span: Dict[str, Any]) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def _spanner_metrics(p: str, o: OpSpans, with_labels: bool) -> Dict[str, float]:
    names = ("spanners.t_bundle_spanner", "spanners.bundle_select")
    bundle_s = o.duration(*names)
    out = {f"{p}.spanners.bundle_s": bundle_s}
    if not with_labels:
        return out
    out.update({
        f"{p}.spanners.calls": float(len(o.named(*names))),
        f"{p}.spanners.components": o.attr("components", *names),
        f"{p}.spanners.absorb_frac": _ratio(o.attr("bundle_edges", *names),
                                            o.attr("input_edges", *names)),
        f"{p}.spanners.edges_per_s": _ratio(o.labels["spanner/scan-edges"], bundle_s),
    })
    for metric, labels in _LABELS.items():
        out[f"{p}.spanners.{metric}"] = sum(o.labels[label] for label in labels)
    return out


def op_metrics(op: str, o: OpSpans) -> Dict[str, float]:
    """Per-layer metrics of one traced op call (names prefixed by the op)."""
    p = op
    m: Dict[str, float] = {}
    if op == "batch":
        m[f"{p}.sparsify.self_s"] = o.layer_self("sparsify")
        m[f"{p}.sparsify.rounds"] = o.attr("rounds", "core.parallel_sparsify")
        m[f"{p}.sparsify.pram_work"] = o.attr("pram_work", "core.parallel_sparsify")
        m[f"{p}.sparsify.pram_depth"] = o.attr("pram_depth", "core.parallel_sparsify")
        m.update(_spanner_metrics(p, o, with_labels=True))
        m[f"{p}.sample.self_s"] = o.layer_self("sample")
        m[f"{p}.sample.assemble_s"] = o.duration("core.assemble_sample_output")
        m[f"{p}.sample.outside_edges"] = o.attr("outside_edges", "core.parallel_sample")
        m[f"{p}.sample.kept_edges"] = o.attr("kept_edges", "core.parallel_sample")
        m[f"{p}.sample.bernoulli_work"] = o.labels["sample/bernoulli"]
        m[f"{p}.graphs.coalesce_s"] = o.duration("graphs.coalesce")
        m[f"{p}.graphs.coalesce_merged"] = o.attr("merged", "graphs.coalesce")
    elif op == "certify":
        block_cg_s = o.duration("linalg.laplacian_solve_many")
        matvecs = o.attr("matvecs", "linalg.laplacian_solve_many")
        m[f"{p}.resistance.self_s"] = o.layer_self("resistance")
        m[f"{p}.resistance.fallbacks"] = o.attr("fallbacks", "resistance.certify_resistances")
        m[f"{p}.resistance.eps_refuted"] = o.attr("eps_refuted", "resistance.certify_resistances")
        m[f"{p}.linalg.block_cg_s"] = block_cg_s
        m[f"{p}.linalg.columns"] = o.attr("columns", "linalg.laplacian_solve_many")
        m[f"{p}.linalg.cg_iters"] = o.attr("iters", "linalg.laplacian_solve_many")
        m[f"{p}.linalg.cg_iters_max"] = o.attr_max("iters_max", "linalg.laplacian_solve_many")
        m[f"{p}.linalg.matvecs"] = matvecs
        m[f"{p}.linalg.matvecs_per_s"] = _ratio(matvecs, block_cg_s)
        m[f"{p}.linalg.cg_work"] = o.attr("work", "linalg.laplacian_solve_many")
        m[f"{p}.linalg.unconverged_cols"] = o.attr("unconverged", "linalg.laplacian_solve_many")
        m[f"{p}.graphs.laplacian_s"] = o.duration("graphs.laplacian")
        m[f"{p}.graphs.components_s"] = o.duration("graphs.connected_components")
    elif op == "distributed":
        bundle_s = o.duration("congest.distributed_bundle_spanner")
        dps = "congest.distributed_parallel_sparsify"
        m[f"{p}.sparsify.self_s"] = o.layer_self("sparsify")
        m[f"{p}.congest.bundle_s"] = bundle_s
        m[f"{p}.congest.self_s"] = o.layer_self("congest", dps)
        m[f"{p}.congest.components"] = o.attr("components", "congest.distributed_bundle_spanner")
        m[f"{p}.congest.max_words"] = o.attr_max("max_words", "congest.distributed_bundle_spanner")
        m[f"{p}.congest.messages_per_s"] = _ratio(
            o.attr("messages", "congest.distributed_bundle_spanner"), bundle_s
        )
        m[f"{p}.congest.reduction_x"] = _ratio(o.attr("input_edges", dps),
                                               o.attr("output_edges", dps))
        m[f"{p}.graphs.coalesce_s"] = o.duration("graphs.coalesce")
        m[f"{p}.graphs.coalesce_merged"] = o.attr("merged", "graphs.coalesce")
    elif op == "ingest":
        working = o.attr("working_edges", "streaming.ingest")
        m[f"{p}.streaming.ingest_self_s"] = o.layer_self("streaming", "streaming.ingest")
        m[f"{p}.streaming.compactions"] = o.attr("compactions", "streaming.ingest")
        m[f"{p}.streaming.rework_x"] = _ratio(working, o.attr("edges", "streaming.ingest"))
        m[f"{p}.streaming.absorb_frac"] = _ratio(
            o.attr("compacted_bundle_edges", "streaming.ingest"), working
        )
        m[f"{p}.streaming.journal_append_s"] = o.duration("streaming.journal_append")
        m[f"{p}.streaming.journal_bytes"] = o.attr("journal_bytes")
        m[f"{p}.streaming.checkpoint_s"] = o.duration("streaming.checkpoint")
        m[f"{p}.streaming.checkpoints"] = float(len(o.named("streaming.checkpoint")))
        m[f"{p}.streaming.snapshot_bytes"] = o.attr("snapshot_bytes")
        m[f"{p}.streaming.io_wait_s"] = o.io_wait()
        m.update(_spanner_metrics(p, o, with_labels=True))
    elif op == "recover":
        m[f"{p}.streaming.snapshot_load_s"] = o.duration("streaming.load_snapshot")
        m[f"{p}.streaming.replay_s"] = o.duration("streaming.ingest")
        m[f"{p}.streaming.recover_restored"] = o.attr("restored", "streaming.recover")
        m[f"{p}.streaming.recover_replayed"] = o.attr("replayed", "streaming.recover")
        m[f"{p}.streaming.recover_lost"] = o.attr("lost", "streaming.recover")
        m[f"{p}.streaming.io_wait_s"] = o.io_wait()
        m.update(_spanner_metrics(p, o, with_labels=False))
    return m


def split_ops(spans: List[Dict[str, Any]]) -> Dict[str, List[OpSpans]]:
    """Group spans by op call, in call order."""
    by_id: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_id[s["op_id"]].append(s)
    out: Dict[str, List[OpSpans]] = defaultdict(list)
    for op_id in sorted(by_id):
        group = by_id[op_id]
        out[group[0]["op"]].append(OpSpans(group))
    return out


def tail(values: List[float], beyond: int = 10) -> tuple:
    """(value, percentile) of the highest percentile with ``beyond`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    k = n - beyond  # 1-based rank: n - k = beyond samples lie beyond it
    return ordered[k - 1], 100.0 * k / n


def _scaled(metrics: Dict[str, float], speed: float) -> Dict[str, float]:
    """One call's metrics with times scaled by the host-speed factor of the call."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            value /= speed
        elif name.endswith(("_s", "_ms")):
            value *= speed
        out[name] = value
    return out


def layer_metrics(
    spans: List[Dict[str, Any]],
    untraced_median: Dict[str, float],
    speeds: Dict[str, List[float]],
) -> Dict[str, float]:
    """Median per-layer metrics over the traced calls, plus trace integrity.

    ``speeds`` holds each traced call's host-speed factor, in call order,
    so that times here are in the same adjusted seconds as the untraced
    medians they are compared with.
    """
    metrics: Dict[str, float] = {}
    traced_total = 0.0
    untraced_total = 0.0
    for op, all_calls in split_ops(spans).items():
        pairs = list(zip(all_calls, speeds[op]))
        calls = [call for call, _ in pairs]
        per_call = [_scaled(op_metrics(op, call), f) for call, f in pairs]
        for name in per_call[0]:
            metrics[name] = statistics.median(c[name] for c in per_call)
        traced = statistics.median(c.total * f for c, f in pairs)
        base = untraced_median[op]
        metrics[f"{op}.trace.outside_frac"] = statistics.median(
            _ratio(c.outside, c.total) for c in calls
        )
        metrics[f"{op}.trace.layer_sum_x"] = _ratio(
            statistics.median((c.total - c.outside) * f for c, f in pairs), base
        )
        metrics[f"{op}.trace.overhead_frac"] = _ratio(traced, base) - 1.0
        traced_total += traced
        untraced_total += base
        if op == "ingest":
            batch_ms = [
                _seconds(s) * 1e3 * f for c, f in pairs for s in c.named("streaming.ingest")
            ]
            value, pct = tail(batch_ms)
            metrics["ingest.streaming.batch_p50_ms"] = statistics.median(batch_ms)
            metrics["ingest.streaming.batch_tail_ms"] = value
            metrics["ingest.streaming.batch_tail_pct"] = pct
            metrics["ingest.streaming.batches"] = float(len(batch_ms))
    metrics["trace.overhead_frac"] = _ratio(traced_total, untraced_total) - 1.0
    return metrics
