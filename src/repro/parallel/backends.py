"""Pluggable execution backends for shard- and job-level parallelism.

The sparsification pipeline contains several *embarrassingly parallel*
fan-outs: per-shard spanner construction inside ``PARALLELSAMPLE``, the
per-shard protocols of the distributed driver, and independent jobs in a
batch workload (:meth:`repro.api.Engine.run_many`).  This module
provides the shared substrate those fan-outs run on:

* :class:`SerialBackend` — in-process sequential execution (the default:
  zero overhead, always available, trivially deterministic);
* :class:`ThreadBackend` — a ``ThreadPoolExecutor``; effective when the
  per-item work releases the GIL in NumPy/SciPy kernels;
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` whose *shared
  payload* (typically the large edge arrays) is pickled once per worker
  process via the pool initializer instead of once per task.

Design invariants
-----------------
1. **Backends execute; they never randomise.**  Every caller splits its
   RNG into per-item sub-streams *before* dispatch
   (:func:`repro.utils.rng.split_rng`), so a fixed seed produces
   bit-identical results on every backend and every worker count.
2. **Results are ordered.**  ``map`` returns results in input order no
   matter how items were scheduled.
3. **Fail fast by default.**  Without a policy, the first exception
   re-raises in the caller and all not-yet-started items are cancelled.
   A :class:`~repro.parallel.failure.FailurePolicy` relaxes this per
   call: ``on_error="retry"`` re-runs crashing items (with deterministic
   seeded backoff) before failing fast, and ``on_error="collect"``
   records :class:`~repro.parallel.failure.FailureRecord` objects and
   finishes the surviving items.  The retry loop runs *inside* the
   worker (:class:`repro.parallel.failure._PolicyCall`), so all three
   backends implement identical semantics from the same code.

Subclasses implement the raw execution primitive :meth:`_map`; the
policy-aware :meth:`map` / :meth:`map_outcomes` layer on the base class
wraps it and is shared by every backend (including registered custom
ones).

A module-level registry maps backend names to classes; algorithms resolve
:class:`repro.core.config.SparsifierConfig` fields through
:func:`get_backend`, and :func:`set_default_backend` changes what a bare
``backend=None`` means process-wide.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Type, TypeVar, Union

from repro.exceptions import BackendError
from repro.parallel.failure import (
    FailurePolicy,
    MapOutcome,
    _PolicyCall,
    collect_outcomes,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BackendSpec",
    "available_backends",
    "register_backend",
    "get_backend",
    "set_default_backend",
]

T = TypeVar("T")
R = TypeVar("R")

#: Anything :func:`get_backend` can resolve: ``None`` (process default), a
#: registered name, or an already-constructed backend instance.
BackendSpec = Union[None, str, "ExecutionBackend"]


def _available_cpus() -> int:
    """Number of CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ExecutionBackend(ABC):
    """Strategy object that maps a function over independent work items.

    Parameters
    ----------
    max_workers:
        Parallelism degree; ``None`` picks the backend's default (1 for
        the serial backend, the available CPU count otherwise).
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = self._default_max_workers()
        if max_workers < 1:
            raise BackendError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    def _default_max_workers(self) -> int:
        return _available_cpus()

    @abstractmethod
    def _map(
        self,
        func: Callable[..., R],
        items: Sequence[T],
        shared: Any = None,
    ) -> List[R]:
        """Raw fail-fast execution primitive each backend implements.

        Applies ``func`` to every item (``func(item, shared)`` when a
        shared payload is given), returns results in input order, and on
        the first exception cancels all not-yet-started items and
        re-raises in the caller.
        """

    def map(
        self,
        func: Callable[..., R],
        items: Sequence[T],
        shared: Any = None,
        policy: Optional[FailurePolicy] = None,
    ) -> List[Any]:
        """Apply ``func`` to every item, returning results in input order.

        With ``shared`` given, ``func(item, shared)`` is called instead of
        ``func(item)``; pool backends transmit ``shared`` to each worker
        once rather than once per task, so callers should place the bulky
        read-only payload (edge arrays, configs) there.

        Without a ``policy`` (or with a pure fail-fast one) the first
        exception cancels all not-yet-started items and re-raises in the
        caller — the historical contract, on the zero-overhead code path.
        With a :class:`~repro.parallel.failure.FailurePolicy`, items are
        retried / collected per the policy; under ``on_error="collect"``
        the returned list holds ``None`` in failed slots (use
        :meth:`map_outcomes` to also get the failure records).
        """
        if policy is None or policy.is_fail_fast:
            return self._map(func, items, shared)
        return self.map_outcomes(func, items, shared=shared, policy=policy).values

    def map_outcomes(
        self,
        func: Callable[..., R],
        items: Sequence[T],
        shared: Any = None,
        policy: Optional[FailurePolicy] = None,
    ) -> MapOutcome:
        """Policy-governed fan-out returning values *and* failure records.

        The full attempt loop of each item runs inside the worker that
        owns it, so retry/collect semantics are identical on every
        backend.  Under ``on_error="raise"`` / ``"retry"`` an exhausted
        item re-raises in the caller with pending items cancelled, exactly
        like :meth:`map`.
        """
        policy = policy if policy is not None else FailurePolicy()
        indexed = list(enumerate(items))
        raw = self._map(_PolicyCall(func, policy), indexed, shared)
        return collect_outcomes(raw)

    def starmap(self, func: Callable[..., R], argument_tuples: Sequence[tuple]) -> List[R]:
        """Apply ``func(*args)`` to every argument tuple, preserving order."""
        return self.map(_StarCall(func), list(argument_tuples))

    def run_all(self, thunks: Sequence[Callable[[], R]]) -> List[R]:
        """Run a list of zero-argument callables, preserving order."""
        return self.map(_call_thunk, list(thunks))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class _StarCall:
    """Picklable ``func(*args)`` adapter (lambdas cannot cross processes)."""

    def __init__(self, func: Callable[..., Any]) -> None:
        self.func = func

    def __call__(self, args: tuple) -> Any:
        return self.func(*args)


def _call_thunk(thunk: Callable[[], R]) -> R:
    return thunk()


class SerialBackend(ExecutionBackend):
    """Sequential in-process execution (reproducible baseline, no overhead)."""

    name: ClassVar[str] = "serial"

    def _default_max_workers(self) -> int:
        return 1

    def _map(self, func: Callable[..., R], items: Sequence[T], shared: Any = None) -> List[R]:
        if shared is None:
            return [func(item) for item in items]
        return [func(item, shared) for item in items]


def _drain_ordered(futures: List["concurrent.futures.Future"]) -> List[Any]:
    """Collect results in order; on the first failure cancel the rest."""
    try:
        return [future.result() for future in futures]
    except BaseException:  # repro: broad-except fail-fast must cancel peers even on KeyboardInterrupt
        for future in futures:
            future.cancel()
        raise


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution; pays off when items release the GIL."""

    name: ClassVar[str] = "thread"

    def _map(self, func: Callable[..., R], items: Sequence[T], shared: Any = None) -> List[R]:
        items = list(items)
        if not items:
            return []
        call = func if shared is None else _SharedCall(func, shared)
        workers = min(self.max_workers, len(items))
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(call, item) for item in items]
            return _drain_ordered(futures)


class _SharedCall:
    """In-process ``func(item, shared)`` closure for serial/thread backends."""

    def __init__(self, func: Callable[..., Any], shared: Any) -> None:
        self.func = func
        self.shared = shared

    def __call__(self, item: Any) -> Any:
        return self.func(item, self.shared)


# Worker-process global holding the shared payload installed by the pool
# initializer; lives in each worker, never in the parent.
_PROCESS_SHARED: Any = None


def _install_process_shared(shared: Any) -> None:
    global _PROCESS_SHARED
    _PROCESS_SHARED = shared


def _invoke_with_process_shared(func: Callable[..., Any], item: Any) -> Any:
    return func(item, _PROCESS_SHARED)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution for GIL-bound per-item work.

    The ``shared`` payload of :meth:`map` is pickled once per worker
    process (through the pool initializer) instead of once per task, so
    fan-outs over large common edge arrays do not pay a per-task
    serialisation tax.  ``func`` and the items themselves must be
    picklable (module-level functions, plain data).

    Each :meth:`map` call builds and tears down its own pool: the shared
    payload is bound at pool creation (initializer), and callers like the
    multi-round sparsifier pass a *different* payload every round, so a
    persistent pool could not be reused for them anyway.  The cost is one
    worker spawn per call — choose this backend when the per-call work
    dominates that spawn cost (GIL-bound kernels on non-trivial graphs),
    and the serial/thread backends otherwise.
    """

    name: ClassVar[str] = "process"

    def _map(self, func: Callable[..., R], items: Sequence[T], shared: Any = None) -> List[R]:
        items = list(items)
        if not items:
            return []
        workers = min(self.max_workers, len(items))
        if shared is None:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            submit = lambda pool, item: pool.submit(func, item)  # noqa: E731
        else:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                initializer=_install_process_shared,
                initargs=(shared,),
            )
            submit = lambda pool, item: pool.submit(  # noqa: E731
                _invoke_with_process_shared, func, item
            )
        with pool:
            futures = [submit(pool, item) for item in items]
            return _drain_ordered(futures)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_BACKEND_CLASSES: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}
_REGISTRY_LOCK = threading.Lock()
_default_backend: ExecutionBackend = SerialBackend()


def available_backends() -> tuple:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKEND_CLASSES))


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Register a custom :class:`ExecutionBackend` subclass under ``cls.name``.

    Usable as a class decorator; returns ``cls`` unchanged.
    """
    if not (isinstance(cls, type) and issubclass(cls, ExecutionBackend)):
        raise BackendError(f"expected an ExecutionBackend subclass, got {cls!r}")
    if not cls.name or cls.name == "abstract":
        raise BackendError("backend classes must define a non-default 'name'")
    with _REGISTRY_LOCK:
        _BACKEND_CLASSES[cls.name] = cls
    return cls


def get_backend(spec: BackendSpec = None, max_workers: Optional[int] = None) -> ExecutionBackend:
    """Resolve ``spec`` into an :class:`ExecutionBackend` instance.

    Parameters
    ----------
    spec:
        ``None`` for the process-wide default (see
        :func:`set_default_backend`), a registered name such as
        ``"serial"`` / ``"thread"`` / ``"process"``, or an instance
        (returned as-is unless ``max_workers`` disagrees, in which case a
        same-type copy with the requested worker count is returned).
    max_workers:
        Worker count override; ``None`` keeps the spec's / backend's own.
    """
    if spec is None:
        with _REGISTRY_LOCK:
            default = _default_backend
        if max_workers is None or max_workers == default.max_workers:
            return default
        if isinstance(default, SerialBackend) and max_workers > 1:
            # Asking for workers without naming a backend would otherwise
            # silently run everything sequentially.
            raise BackendError(
                f"max_workers={max_workers} requested but no backend was named and "
                "the default backend is 'serial' (single-worker); pass "
                "backend='thread' or 'process', or set_default_backend(...), "
                "to actually run in parallel"
            )
        return type(default)(max_workers)
    if isinstance(spec, ExecutionBackend):
        if max_workers is None or max_workers == spec.max_workers:
            return spec
        return type(spec)(max_workers)
    if isinstance(spec, str):
        with _REGISTRY_LOCK:
            cls = _BACKEND_CLASSES.get(spec)
        if cls is None:
            raise BackendError(
                f"unknown execution backend {spec!r}; available: {', '.join(available_backends())}"
            )
        return cls(max_workers)
    raise BackendError(f"cannot resolve backend from {spec!r}")


def set_default_backend(
    spec: BackendSpec, max_workers: Optional[int] = None
) -> ExecutionBackend:
    """Set the process-wide default backend; returns the *previous* default.

    The previous backend is returned so callers can restore it::

        previous = set_default_backend("thread", max_workers=4)
        try:
            ...
        finally:
            set_default_backend(previous)
    """
    global _default_backend
    backend = get_backend(spec if spec is not None else "serial", max_workers)
    with _REGISTRY_LOCK:
        previous, _default_backend = _default_backend, backend
    return previous
