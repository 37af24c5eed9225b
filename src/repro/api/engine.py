"""The engine: one front door over every sparsifier method of the table.

:class:`Engine` resolves a :class:`~repro.api.request.SparsifyRequest`
once — method adapter and config — and then runs it against one graph
(:meth:`Engine.run`) or many (:meth:`Engine.run_many`), emitting
:class:`~repro.api.result.ProgressEvent` telemetry and returning
:class:`~repro.api.result.UnifiedResult` objects that are directly
comparable across methods.

The one-liner most callers want::

    import repro
    result = repro.sparsify(g, method="koutis", epsilon=0.5, seed=7)
    result.sparsifier, result.reduction_factor, result.certificate

Determinism contract: for a fixed integer seed, ``Engine.run`` produces
*bit-identical* edge selections to the corresponding legacy entry point
(``parallel_sparsify``, ``distributed_parallel_sparsify``, the three
baselines), and job ``i`` of ``Engine.run_many`` matches a solo run on
the ``i``-th pre-split RNG stream of the seed — the engine adds a
uniform surface, never new randomness.  The parity tests in
``tests/test_api_engine.py`` and ``tests/test_batch.py`` pin this.

Where the work runs is the config's business alone: ``run_many`` fans
its jobs out on ``config.execution_backend()``, the same call the stream
compactions inside the ``streaming`` method use.  ``run_many`` is the
only fan-out that runs several jobs at once; a single ``run`` computes
each ``PARALLELSAMPLE`` round on the whole graph in the calling thread,
and warns when its config names a backend only ``streaming`` would use.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.registry import MethodSpec, get_method
from repro.api.request import SparsifyRequest
from repro.api.result import ProgressEvent, UnifiedBatchResult, UnifiedResult
from repro.core.certificates import certify_approximation
from repro.core.checkpoint import BatchJournal, DurableIO
from repro.core.config import SparsifierConfig
from repro.exceptions import MethodError
from repro.graphs.graph import Graph
from repro.parallel.failure import FailurePolicy, FailureRecord
from repro.utils.rng import as_rng, split_rng

__all__ = ["Engine", "sparsify", "compare_methods"]

ProgressCallback = Callable[[ProgressEvent], None]


def _noop_emit(kind: str, **fields: Any) -> None:
    """Runner-side emit used when nobody is listening (also in workers)."""


def _run_adapter(
    spec: MethodSpec,
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
) -> Tuple[Any, float]:
    """Invoke a method runner, timing it; returns (native result, seconds)."""
    start = time.perf_counter()
    native = spec.runner(
        graph,
        config=config,
        epsilon=epsilon,
        rho=rho,
        seed=seed,
        options=options,
        emit=emit,
    )
    return native, time.perf_counter() - start


def _engine_job(item: Tuple[int, Graph, Any], shared: Dict[str, Any]) -> Tuple[Any, float]:
    """One ``run_many`` job; module-level so the process backend can pickle it.

    The per-job RNG stream arrives in the item (split before dispatch, so
    the output is bit-identical on every backend and worker count); the
    request-shaped payload travels through ``shared`` once per worker.
    """
    _job_index, graph, seed = item
    return _run_adapter(
        shared["spec"],
        graph,
        config=shared["config"],
        epsilon=shared["epsilon"],
        rho=shared["rho"],
        seed=seed,
        options=dict(shared["options"]),
        emit=_noop_emit,
    )


class Engine:
    """Resolved, reusable executor for one :class:`SparsifyRequest`.

    Parameters
    ----------
    request:
        The request to execute.  Method and config resolution happen
        here, eagerly, so an unknown method or invalid config fails at
        construction rather than mid-run.
    progress:
        Optional callback receiving :class:`ProgressEvent` objects:
        one ``"round"`` event per round for multi-round methods, plus a
        final ``"result"`` event per run (and per job in
        :meth:`run_many`).  This is the telemetry hook a serving layer
        attaches metrics/log emission to; exceptions raised by the
        callback propagate to the caller.
    """

    def __init__(
        self, request: SparsifyRequest, progress: Optional[ProgressCallback] = None
    ) -> None:
        if not isinstance(request, SparsifyRequest):
            raise MethodError(
                f"Engine expects a SparsifyRequest, got {type(request).__name__}"
            )
        self.request = request
        self.progress = progress
        self._spec = get_method(request.method)
        self._config = request.config if request.config is not None else SparsifierConfig()

    # ------------------------------------------------------------------ #

    @property
    def method(self) -> str:
        """Canonical name of the resolved method (aliases resolved)."""
        return self._spec.name

    @property
    def config(self) -> SparsifierConfig:
        """The effective config (the request's, or the default one)."""
        return self._config

    def _make_emit(self, job_index: Optional[int] = None) -> Callable[..., None]:
        if self.progress is None:
            return _noop_emit
        progress = self.progress
        method = self._spec.name

        def emit(kind: str, **fields: Any) -> None:
            progress(ProgressEvent(method=method, kind=kind, job_index=job_index, **fields))

        return emit

    def _wrap(
        self, graph: Graph, native: Any, wall_seconds: float
    ) -> UnifiedResult:
        certificate = (
            certify_approximation(graph, native.sparsifier) if self.request.certify else None
        )
        return UnifiedResult(
            method=self._spec.name,
            sparsifier=native.sparsifier,
            input_edges=native.input_edges,
            output_edges=native.output_edges,
            wall_time_seconds=wall_seconds,
            request=self.request,
            native=native,
            cost=getattr(native, "cost", None),
            certificate=certificate,
        )

    # ------------------------------------------------------------------ #

    def run(self, graph: Graph) -> UnifiedResult:
        """Execute the request on one graph.

        Deterministic for a fixed integer seed: repeated calls return
        bit-identical sparsifiers, exactly like the legacy entry points.
        One run is serial: a config naming a backend other than serial,
        or ``max_workers > 1``, gets a :class:`UserWarning` here unless
        the method is ``streaming``, whose compactions use the backend.
        """
        config = self._config
        parallel = config.backend not in (None, "serial") or (config.max_workers or 1) > 1
        if parallel and self._spec.name != "streaming":
            warnings.warn(
                f"backend={config.backend!r}, max_workers={config.max_workers!r} does "
                f"nothing for one {self._spec.name!r} run, which is serial: only "
                "run_many jobs and stream compactions use a backend",
                UserWarning,
                stacklevel=2,
            )
        emit = self._make_emit()
        native, wall_seconds = _run_adapter(
            self._spec,
            graph,
            config=self._config,
            epsilon=self.request.epsilon,
            rho=self.request.rho,
            seed=self.request.seed,
            options=dict(self.request.options),
            emit=emit,
        )
        result = self._wrap(graph, native, wall_seconds)
        emit(
            "result",
            input_edges=result.input_edges,
            output_edges=result.output_edges,
        )
        return result

    def _checkpoint_pins(self, num_jobs: int) -> Dict[str, Any]:
        """Every request field that can change a job's output.

        The config's ``backend`` and ``max_workers`` are left out: outputs
        are bit-identical across them.  ``certify`` is left out because
        certificates are recomputed on every run.
        """
        config = asdict(self._config)
        del config["backend"], config["max_workers"]
        return {
            "method": self._spec.name,
            "epsilon": self.request.epsilon,
            "rho": self.request.rho,
            "seed": self.request.seed,
            "options": dict(self.request.options),
            "config": config,
            "num_jobs": num_jobs,
        }

    def run_many(
        self,
        graphs: Iterable[Graph],
        failure_policy: Optional[FailurePolicy] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        checkpoint_io: Optional[DurableIO] = None,
    ) -> UnifiedBatchResult:
        """Execute the request independently on many graphs.

        The job fan-out runs on the config's backend; job ``i`` receives
        the ``i``-th RNG sub-stream of the seed (split *before* dispatch)
        and runs its internal work serially, so job ``i`` is bit-identical
        to a solo run on that sub-stream, on every backend and worker
        count.  Because the sub-streams are pre-split, a job retried under
        a failure policy reproduces the same output as a run that never
        crashed.

        ``failure_policy`` governs worker failures: ``"raise"`` fails fast
        (default), ``"retry"`` re-runs crashed jobs with seeded backoff,
        ``"collect"`` returns ``None`` slots with
        :class:`~repro.parallel.failure.FailureRecord` entries on the
        batch result instead of raising.

        ``checkpoint`` names a JSON-lines journal
        (:class:`~repro.core.checkpoint.BatchJournal`).  Pending jobs then
        run in waves and each wave's completed jobs are appended as it
        lands; re-running the same request on the same graphs skips them
        (``resumed_jobs`` counts them, and their ``wall_time_seconds`` is
        0).  A journal written for a different request or different graphs
        raises :class:`~repro.exceptions.CheckpointError`.  Only
        ``method="koutis"`` can be checkpointed (its
        :class:`~repro.core.sparsify.SparsifyResult` is the one native
        result with a journal codec); any other method raises
        :class:`~repro.exceptions.MethodError` before a job runs.
        ``checkpoint_io`` is the :class:`~repro.core.checkpoint.DurableIO`
        the journal writes through (default: the real fsync'd
        filesystem); the crash harness passes a
        :class:`~repro.testing.faults.CrashPointIO`.

        Per-job ``"result"`` events (with ``job_index``) are emitted in
        input order after the fan-out completes, so telemetry behaves the
        same on in-process and multi-process backends.
        """
        if checkpoint is not None and self._spec.name != "koutis":
            raise MethodError(
                f"checkpoint= supports only method 'koutis' (the one native result "
                f"with a journal codec), not {self._spec.name!r}"
            )
        graph_list = list(graphs)
        backend = self._config.execution_backend()
        attempts = [1] * len(graph_list)
        failures: List[FailureRecord] = []
        journal: Optional[BatchJournal] = None
        completed: Dict[int, Any] = {}
        if checkpoint is not None and graph_list:
            journal = BatchJournal(
                checkpoint, self._checkpoint_pins(len(graph_list)), io=checkpoint_io
            )
            completed = journal.load_completed(graph_list)
        outcomes: List[Optional[Tuple[Any, float]]] = [
            (completed[i], 0.0) if i in completed else None for i in range(len(graph_list))
        ]
        # Jobs run their internal work serially: the batch IS the fan-out
        # (avoids nested pools; output-neutral because backends never
        # change results).
        job_config = self._config.with_overrides(backend="serial", max_workers=None)
        job_rngs = split_rng(as_rng(self.request.seed), len(graph_list)) if graph_list else []
        pending = [
            (i, graph, job_rngs[i])
            for i, graph in enumerate(graph_list)
            if outcomes[i] is None
        ]
        shared = {
            "spec": self._spec,
            "config": job_config,
            "epsilon": self.request.epsilon,
            "rho": self.request.rho,
            "options": dict(self.request.options),
        }
        # With a journal, run the pending jobs in waves and append each
        # wave's results as they land: a crash mid-batch loses at most one
        # wave, not the whole run.  Without one, a single fan-out is cheapest.
        wave_size = max(backend.max_workers * 4, 8) if journal is not None else max(len(pending), 1)
        for start in range(0, len(pending), wave_size):
            wave = pending[start:start + wave_size]
            if failure_policy is None or failure_policy.is_fail_fast:
                values = backend.map(_engine_job, wave, shared=shared)
            else:
                mapped = backend.map_outcomes(
                    _engine_job, wave, shared=shared, policy=failure_policy
                )
                values = mapped.values
                # Re-key failure records from wave-local to batch job indices.
                failures.extend(
                    replace(record, index=wave[record.index][0]) for record in mapped.failures
                )
                for (job_index, _graph, _seed), count in zip(wave, mapped.attempts):
                    attempts[job_index] = count
            for (job_index, graph, _seed), value in zip(wave, values):
                outcomes[job_index] = value
                if journal is not None and value is not None:
                    journal.record(job_index, graph, value[0])
        results: List[Optional[UnifiedResult]] = []
        for job_index, (graph, outcome) in enumerate(zip(graph_list, outcomes)):
            if outcome is None:
                results.append(None)
                continue
            native, wall_seconds = outcome
            result = self._wrap(graph, native, wall_seconds)
            results.append(result)
            self._make_emit(job_index)(
                "result",
                input_edges=result.input_edges,
                output_edges=result.output_edges,
            )
        return UnifiedBatchResult(
            results=results,
            method=self._spec.name,
            backend_name=backend.name,
            max_workers=backend.max_workers,
            failures=failures,
            attempts=attempts if failure_policy is not None else None,
            resumed_jobs=len(completed),
        )


# ---------------------------------------------------------------------- #
# Convenience front doors.
# ---------------------------------------------------------------------- #


def sparsify(
    graph: Graph,
    method: str = "koutis",
    *,
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: Optional[int] = None,
    certify: bool = False,
    progress: Optional[ProgressCallback] = None,
    **options: Any,
) -> UnifiedResult:
    """Sparsify ``graph`` with any method of the table — the package front door.

    Builds a :class:`SparsifyRequest` from the keyword arguments, resolves
    it through an :class:`Engine`, and returns the
    :class:`~repro.api.result.UnifiedResult`.  Extra keyword arguments are
    forwarded to the method as its ``options`` (e.g. ``probability=0.3``
    for ``method="uniform"``).  ``config`` holds the algorithm settings
    (``SparsifierConfig(bundle_t=..., sampling_probability=..., ...)``).

    >>> import repro
    >>> g = repro.generators.erdos_renyi_graph(200, 0.2, seed=1, ensure_connected=True)
    >>> result = repro.sparsify(g, method="koutis", epsilon=0.5, seed=2)
    >>> result.output_edges <= g.num_edges
    True
    """
    request = SparsifyRequest(
        method=method,
        epsilon=epsilon,
        rho=rho,
        config=config,
        seed=seed,
        certify=certify,
        options=options,
    )
    return Engine(request, progress=progress).run(graph)


def compare_methods(
    graph: Graph,
    methods: Sequence[str],
    *,
    epsilon: Optional[float] = None,
    rho: float = 4.0,
    config: Optional[SparsifierConfig] = None,
    seed: Optional[int] = None,
    certify: bool = False,
    options_by_method: Optional[Dict[str, Dict[str, Any]]] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[UnifiedResult]:
    """Run several methods on one graph with identical parameters.

    Every method receives the *same* epsilon / rho / config / seed, so the
    resulting :class:`UnifiedResult` objects are a fair side-by-side
    comparison (the core experiment of the paper).  Render them with
    :func:`repro.analysis.reporting.comparison_table`.

    Parameters
    ----------
    methods:
        Method names or aliases (at least one; the CLI ``compare``
        subcommand requires two or more).
    options_by_method:
        Optional per-method options, keyed by the name used in
        ``methods``.
    """
    if not methods:
        raise MethodError("compare_methods needs at least one method name")
    options_by_method = options_by_method or {}
    results = []
    for name in methods:
        request = SparsifyRequest(
            method=name,
            epsilon=epsilon,
            rho=rho,
            config=config,
            seed=seed,
            certify=certify,
            options=options_by_method.get(name, {}),
        )
        results.append(Engine(request, progress=progress).run(graph))
    return results
