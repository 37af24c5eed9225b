"""Failure policies for execution-backend fan-outs.

The backend layer's historical contract is *fail fast*: the first
exception cancels every not-yet-started item and re-raises in the caller.
That is the right default for interactive work, but a serving batch of a
thousand independent jobs should not die with job #3.  This module adds
the vocabulary the backends use to do better:

* :class:`FailurePolicy` — what to do when an item raises: ``"raise"``
  (fail fast, the default), ``"retry"`` (re-run the item up to
  ``max_attempts`` with deterministic seeded exponential backoff, then
  fail fast), or ``"collect"`` (retry, then record a
  :class:`FailureRecord` and keep going with the other items).  Those
  two fields are all a policy sets; the backoff schedule is fixed
  (:func:`backoff_delay`).
* :class:`FailureRecord` — one failed item: its index, exception type and
  message, attempts spent, and elapsed seconds.
* :class:`MapOutcome` — what :meth:`ExecutionBackend.map_outcomes`
  returns: per-item values (``None`` where an item ultimately failed),
  the failure records, and per-item attempt counts.

Design invariants
-----------------
1. **Retries run inside the worker.**  The whole attempt loop of one item
   executes in the worker that owns the item (:class:`_PolicyCall`), so
   the semantics are identical on the serial, thread, and process
   backends and a transient crash never round-trips through the caller.
2. **Backoff is deterministic.**  The jittered delay before attempt
   ``a`` of item ``i`` is a pure function of ``(i, a)`` (via
   :mod:`repro.utils.rng`), so a retried run sleeps the same schedule
   every time — tests can assert on it.
3. **Retries are output-neutral.**  Callers split RNG streams per item
   *before* dispatch (the package-wide determinism contract), and the
   attempt loop rewinds every generator the item carries (directly or in
   nested tuples and lists) to its state before the first attempt, so an
   item that fails transiently — even part-way through, after drawing
   from its stream — and is retried produces bit-identical output to a
   run that never failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import BackendError
from repro.utils.rng import as_rng

__all__ = [
    "ON_ERROR_CHOICES",
    "FailurePolicy",
    "FailureRecord",
    "MapOutcome",
    "ATTEMPT_AWARE_ATTR",
    "backoff_delay",
]

ON_ERROR_CHOICES = ("raise", "retry", "collect")

#: The retry backoff schedule: attempt ``a >= 2`` waits
#: ``BACKOFF_BASE * BACKOFF_FACTOR**(a - 2)`` seconds, capped at
#: ``BACKOFF_MAX``, scaled by ``1 + BACKOFF_JITTER * u`` with
#: ``u ~ Uniform[0, 1)`` drawn from ``(item index, attempt)``.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0
BACKOFF_JITTER = 0.1

#: Marker attribute for *attempt-aware* callables: when a mapped function
#: (or an injector wrapping one) sets this attribute truthy, the policy
#: machinery calls it with ``index=`` and ``attempt=`` keyword arguments so
#: it can behave differently per item and per attempt.  This is how the
#: fault injectors of :mod:`repro.testing.faults` land *underneath* the
#: retry loop (crash on attempt 1, succeed on attempt 2).
ATTEMPT_AWARE_ATTR = "__repro_attempt_aware__"


@dataclass(frozen=True)
class FailurePolicy:
    """What a backend fan-out does when a work item raises.

    Attributes
    ----------
    on_error:
        ``"raise"`` — fail fast (first failure cancels pending items and
        re-raises; the historical behavior and the default).
        ``"retry"`` — re-run the failing item up to ``max_attempts``
        times; if every attempt fails, fail fast with the last exception.
        ``"collect"`` — like ``"retry"``, but an exhausted item is
        recorded as a :class:`FailureRecord` and the fan-out continues;
        its slot in the results is ``None``.
    max_attempts:
        Total attempts per item (1 = no retry).  Must be 1 when
        ``on_error="raise"``.  Retries wait :func:`backoff_delay`.
    """

    on_error: str = "raise"
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_CHOICES:
            raise BackendError(
                f"on_error must be one of {', '.join(ON_ERROR_CHOICES)}, got {self.on_error!r}"
            )
        if self.max_attempts < 1:
            raise BackendError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.on_error == "raise" and self.max_attempts != 1:
            raise BackendError(
                "on_error='raise' is fail-fast and cannot retry; use "
                "on_error='retry' (or 'collect') with max_attempts > 1"
            )

    @property
    def is_fail_fast(self) -> bool:
        """True when this policy is exactly the historical backend contract.

        Backends skip the policy wrapper entirely for such policies, so the
        default path stays zero-overhead (and bit-for-bit unchanged).
        """
        return self.on_error == "raise"


def backoff_delay(index: int, attempt: int) -> float:
    """Seconds to wait before ``attempt`` (1-based) of item ``index``.

    A pure function of its two arguments (see the ``BACKOFF_*``
    constants); the first attempt never waits.
    """
    if attempt <= 1:
        return 0.0
    base = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 2))
    rng = as_rng(np.random.SeedSequence([0, int(index), int(attempt)]))
    return float(base * (1.0 + BACKOFF_JITTER * rng.random()))


@dataclass(frozen=True)
class FailureRecord:
    """One work item that ultimately failed under ``on_error="collect"``.

    ``error_type`` is the exception class name (the exception object itself
    may not survive a process boundary cheaply; the name and message always
    do, and are identical across backends for the same failure).
    """

    index: int
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def describe(self) -> Tuple[int, str, str, int]:
        """Backend-independent identity (drops the timing)."""
        return (self.index, self.error_type, self.message, self.attempts)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


@dataclass
class MapOutcome:
    """Result of a policy-governed fan-out (``ExecutionBackend.map_outcomes``).

    Attributes
    ----------
    values:
        Per-item results in input order; ``None`` where the item failed
        (only possible under ``on_error="collect"``).
    failures:
        :class:`FailureRecord` per failed item, in input order.
    attempts:
        Attempts spent per item (successes included).
    """

    values: List[Any]
    failures: List[FailureRecord] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    @property
    def all_succeeded(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class _ItemOutcome:
    """Worker-side result of one item's full attempt loop (picklable)."""

    index: int
    ok: bool
    value: Any
    attempts: int
    elapsed: float
    error_type: str = ""
    message: str = ""

    def failure_record(self) -> FailureRecord:
        return FailureRecord(
            index=self.index,
            error_type=self.error_type,
            message=self.message,
            attempts=self.attempts,
            elapsed=self.elapsed,
        )


_NO_SHARED = object()


def _generators_in(item: Any) -> List[np.random.Generator]:
    """Every ``numpy.random.Generator`` in ``item``, itself or nested in tuples and lists."""
    if isinstance(item, np.random.Generator):
        return [item]
    if isinstance(item, (tuple, list)):
        return [rng for part in item for rng in _generators_in(part)]
    return []


class _PolicyCall:
    """Picklable wrapper running one item's full attempt loop in the worker.

    Receives ``(index, item)`` tuples (the indexing is added by
    ``map_outcomes`` before dispatch) and returns an :class:`_ItemOutcome`.
    Under ``on_error="raise"``/``"retry"`` an exhausted item re-raises its
    last exception *inside the worker*, which triggers the backends'
    ordinary fail-fast cancellation — identically on all of them.
    """

    def __init__(self, func: Callable[..., Any], policy: FailurePolicy) -> None:
        self.func = func
        self.policy = policy
        self.attempt_aware = bool(getattr(func, ATTEMPT_AWARE_ATTR, False))

    def _invoke(self, item: Any, shared: Any, index: int, attempt: int) -> Any:
        args = (item,) if shared is _NO_SHARED else (item, shared)
        if self.attempt_aware:
            return self.func(*args, index=index, attempt=attempt)
        return self.func(*args)

    def __call__(self, indexed: Tuple[int, Any], shared: Any = _NO_SHARED) -> _ItemOutcome:
        index, item = indexed
        started = time.perf_counter()
        last_error: Optional[BaseException] = None
        rngs = _generators_in(item)
        initial_states = [rng.bit_generator.state for rng in rngs]
        attempt = 0
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                time.sleep(backoff_delay(index, attempt))
                # A failed attempt may have drawn from the item's streams.
                for rng, state in zip(rngs, initial_states):
                    rng.bit_generator.state = state
            try:
                value = self._invoke(item, shared, index, attempt)
                return _ItemOutcome(
                    index=index,
                    ok=True,
                    value=value,
                    attempts=attempt,
                    elapsed=time.perf_counter() - started,
                )
            except Exception as exc:  # noqa: BLE001 - policy layer must see every failure
                last_error = exc
        if self.policy.on_error == "collect":
            return _ItemOutcome(
                index=index,
                ok=False,
                value=None,
                attempts=attempt,
                elapsed=time.perf_counter() - started,
                error_type=type(last_error).__name__,
                message=str(last_error),
            )
        raise last_error  # fail fast: backends cancel the pending items


def collect_outcomes(raw: Sequence[_ItemOutcome]) -> MapOutcome:
    """Fold worker-side :class:`_ItemOutcome` objects into a :class:`MapOutcome`."""
    values: List[Any] = [None] * len(raw)
    attempts: List[int] = [0] * len(raw)
    failures: List[FailureRecord] = []
    for outcome in raw:
        values[outcome.index] = outcome.value
        attempts[outcome.index] = outcome.attempts
        if not outcome.ok:
            failures.append(outcome.failure_record())
    failures.sort(key=lambda record: record.index)
    return MapOutcome(values=values, failures=failures, attempts=attempts)
