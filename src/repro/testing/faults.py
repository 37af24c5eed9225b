"""Deterministic, seed-free fault injectors for the resilience layer.

Every retry / degradation path in the package is exercised by tests
rather than trusted on faith; this module provides the machinery those
tests (and downstream game-day rehearsals) drive:

* :class:`FaultPlan` — a declarative description of which item crashes
  and on which attempts.  Plans are plain frozen data, picklable, and
  their behavior is a pure function of ``(item index, attempt number)``
  — no hidden state, so the same plan produces the same faults on the
  serial, thread, and process backends.
* :class:`InjectingBackend` — an execution backend wrapping one of the
  three backends and applying a plan's faults *underneath* the
  failure-policy retry loop (crash on attempt 1, succeed on attempt 2).
  Built directly, never by name: a test substitutes it for a fan-out's
  backend by patching
  :meth:`repro.core.config.SparsifierConfig.execution_backend`, the one
  call every fan-out uses to get its backend, e.g. with pytest's
  ``monkeypatch.setattr(SparsifierConfig, "execution_backend",
  lambda self: backend)``.
* :class:`NaNPoisonedOperator` / :func:`nan_poisoned_preconditioner` —
  matvec/preconditioner wrappers that start emitting NaNs after a set
  number of applications, for driving the solver tier's non-finite
  detection and the chain → cg degradation ladder.
* :func:`cache_eviction_storm` — concurrent get/build/clear hammering of
  a :class:`repro.solvers.chain.ChainCache`, for the thread-safety test.
* :class:`CrashPointIO` / :func:`kill_point_sweep` — the crash-consistency
  torture harness for the durable streaming state store: a
  :class:`~repro.core.checkpoint.DurableIO` that kills the "process"
  (raises :class:`SimulatedCrash`) at the N-th filesystem mutation,
  optionally leaving a torn half-write or a bit-flipped write behind, and
  a driver that sweeps N over every write point of a workload.
* :func:`truncate_file_at` / :func:`flip_bit` — byte-level corruptors for
  the journal/snapshot fuzz tests (truncate at every offset, flip a bit).

The injectors use the *attempt-aware callable* protocol of
:mod:`repro.parallel.failure` (``__repro_attempt_aware__``): the policy
machinery passes ``index=`` / ``attempt=`` down, which is what lets a
fault be transient rather than permanent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.core.checkpoint import DurableIO
from repro.exceptions import FaultInjectionError
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.parallel.failure import ATTEMPT_AWARE_ATTR, FailurePolicy, MapOutcome

__all__ = [
    "CrashPointIO",
    "FaultPlan",
    "InjectingBackend",
    "NaNPoisonedOperator",
    "SimulatedCrash",
    "flip_bit",
    "kill_point_sweep",
    "nan_poisoned_preconditioner",
    "cache_eviction_storm",
    "truncate_file_at",
]


class SimulatedCrash(FaultInjectionError):
    """The injected process death of the crash-consistency harness.

    Raised by :class:`CrashPointIO` at its kill point and on every
    filesystem mutation after it (a dead process issues no more writes).
    Deliberately *not* a :class:`CheckpointError`: production code must
    never catch it — it propagates out of the workload like a real crash.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault schedule for one backend fan-out.

    Attributes
    ----------
    crash_index:
        Item index whose execution raises
        :class:`~repro.exceptions.FaultInjectionError` (``None`` = no
        crash).
    crash_attempts:
        The crash fires on attempts ``1..crash_attempts`` of that item
        and the item succeeds from attempt ``crash_attempts + 1`` on —
        so a plan with ``crash_attempts=1`` under ``max_attempts>=2``
        exercises exactly one retry.  Use a value ``>= max_attempts`` for
        a permanent failure.
    message:
        Text of the injected exception (part of the deterministic
        failure identity tests compare across backends).
    """

    crash_index: Optional[int] = None
    crash_attempts: int = 1
    message: str = "injected worker crash"

    def wrap(self, func: Callable[..., Any]) -> "_FaultyCall":
        """Wrap ``func`` so this plan's faults fire around it."""
        return _FaultyCall(func, self)


class _FaultyCall:
    """Picklable attempt-aware wrapper applying a :class:`FaultPlan`.

    The wrapped function keeps its own calling convention
    (``func(item)`` / ``func(item, shared)``); the plan only consumes the
    ``index`` / ``attempt`` keywords injected by the policy machinery.
    """

    def __init__(self, func: Callable[..., Any], plan: FaultPlan) -> None:
        self.func = func
        self.plan = plan
        self.inner_attempt_aware = bool(getattr(func, ATTEMPT_AWARE_ATTR, False))

    # Mark for repro.parallel.failure._PolicyCall: give us index/attempt.
    __repro_attempt_aware__ = True

    def __call__(self, *args: Any, index: int = 0, attempt: int = 1) -> Any:
        plan = self.plan
        if plan.crash_index is not None and index == plan.crash_index and attempt <= plan.crash_attempts:
            raise FaultInjectionError(f"{plan.message} (item {index}, attempt {attempt})")
        if self.inner_attempt_aware:
            return self.func(*args, index=index, attempt=attempt)
        return self.func(*args)


class InjectingBackend(ExecutionBackend):
    """Backend wrapper injecting a :class:`FaultPlan` under the retry loop.

    Delegates actual execution to the ``inner`` backend (a name for
    :func:`~repro.parallel.backends.get_backend`; default serial),
    wrapping the mapped function so the plan's faults fire inside the
    worker — *underneath* any :class:`~repro.parallel.failure.FailurePolicy`
    attempt loop, which is the point: a transient crash on attempt 1 is
    retried by the policy and succeeds on attempt 2, exercising the real
    recovery path on whichever backend ``inner`` names.

    Plain :meth:`map` calls (no policy) still route through the policy
    machinery with a fail-fast policy so the wrapper receives item
    indices; semantics are unchanged (first failure cancels and
    re-raises).
    """

    name = "injecting"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        inner: str = "serial",
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.inner = get_backend(inner, max_workers)
        self.plan = plan if plan is not None else FaultPlan()
        super().__init__(self.inner.max_workers)

    def _map(self, func: Callable[..., Any], items: Sequence[Any], shared: Any = None) -> List[Any]:
        return self.inner._map(func, items, shared)

    def map(
        self,
        func: Callable[..., Any],
        items: Sequence[Any],
        shared: Any = None,
        policy: Optional[FailurePolicy] = None,
    ) -> List[Any]:
        outcome = self.map_outcomes(func, items, shared=shared, policy=policy)
        return outcome.values

    def map_outcomes(
        self,
        func: Callable[..., Any],
        items: Sequence[Any],
        shared: Any = None,
        policy: Optional[FailurePolicy] = None,
    ) -> MapOutcome:
        return self.inner.map_outcomes(
            self.plan.wrap(func), items, shared=shared, policy=policy
        )

    def __repr__(self) -> str:
        return (
            f"InjectingBackend(inner={self.inner!r}, plan={self.plan!r})"
        )


class NaNPoisonedOperator:
    """Wrap a block operator (matvec / preconditioner) to emit NaNs.

    The first ``healthy_applications`` calls pass through unchanged; from
    the next call on, the output is all-NaN with the input's shape.  Used
    to drive the solver tier's non-finite detection (``SolveStatus``) and
    the chain → cg degradation ladder without constructing a genuinely
    broken chain.

    The wrapper is stateful (an application counter) and therefore meant
    for in-process solver paths, not for crossing process boundaries.
    """

    def __init__(self, inner: Callable[[np.ndarray], np.ndarray], healthy_applications: int = 0):
        self.inner = inner
        self.healthy_applications = int(healthy_applications)
        self.calls = 0

    def __call__(self, block: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls > self.healthy_applications:
            return np.full_like(np.asarray(block, dtype=float), np.nan)
        return np.asarray(self.inner(block), dtype=float)


def nan_poisoned_preconditioner(
    preconditioner: Callable[[np.ndarray], np.ndarray],
    work_per_application: float,
    healthy_applications: int = 0,
):
    """Poisoned drop-in for ``chain_preconditioner_for(...)``'s return value.

    Returns ``(NaNPoisonedOperator(preconditioner), work_per_application)``
    — the shape the resistance layer expects — so a test can monkeypatch
    ``chain_preconditioner_for`` and watch the degradation ladder catch
    the breakdown.
    """
    return (
        NaNPoisonedOperator(preconditioner, healthy_applications=healthy_applications),
        work_per_application,
    )


def cache_eviction_storm(
    cache: Any,
    graphs: Sequence[Any],
    num_threads: int = 4,
    rounds: int = 8,
    clear_every: int = 3,
) -> List[BaseException]:
    """Hammer a :class:`repro.solvers.chain.ChainCache` from many threads.

    Each thread cycles through ``graphs`` requesting chains while
    periodically clearing the cache (the eviction storm), which is the
    access pattern that corrupts an unlocked LRU.  Returns the list of
    exceptions raised inside worker threads (empty for a healthy cache);
    counter-consistency assertions are the caller's job.
    """
    errors: List[BaseException] = []
    errors_lock = threading.Lock()
    start_barrier = threading.Barrier(num_threads)

    def worker(worker_id: int) -> None:
        try:
            start_barrier.wait(timeout=10)
            for round_index in range(rounds):
                graph = graphs[(worker_id + round_index) % len(graphs)]
                cache.chain_for(graph, seed=0)
                if (worker_id + round_index) % clear_every == 0:
                    cache.clear()
        except BaseException as exc:  # noqa: BLE001 - test harness must surface everything
            with errors_lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return errors


# --------------------------------------------------------------------- #
# Crash-consistency torture harness
# --------------------------------------------------------------------- #


class CrashPointIO(DurableIO):
    """A :class:`DurableIO` that dies at its N-th filesystem mutation.

    Every write the durability layer performs routes through one
    ``DurableIO`` method; this subclass counts those calls and, when the
    counter reaches ``crash_at``, raises :class:`SimulatedCrash` instead
    of (or — depending on ``mode`` — after damaging) the write.  Every
    subsequent call also raises: a crashed process issues no more I/O.

    ``mode`` controls what the dying write leaves on disk:

    * ``"clean"`` — nothing: the mutation simply never happens (a crash
      just before the syscall, or a write that never left the page cache).
    * ``"torn"`` — the first half of the payload, unfsynced: a write torn
      mid-way (only meaningful for ``append_line`` / ``write_bytes``;
      other ops fall back to ``"clean"``).
    * ``"flip"`` — the full payload with one bit flipped: media corruption
      coinciding with the crash.

    ``crash_at=None`` never crashes (useful to count a workload's ops:
    run once, read :attr:`ops`, then sweep ``crash_at`` over the range).
    """

    def __init__(self, crash_at: Optional[int] = None, mode: str = "clean") -> None:
        if mode not in ("clean", "torn", "flip"):
            raise ValueError(f"unknown crash mode {mode!r}")
        self.crash_at = crash_at
        self.mode = mode
        self.ops = 0
        self.crashed = False
        self.op_log: List[str] = []

    def _tick(self, name: str, path: Any) -> bool:
        """Count one mutation; True when this is the one that dies."""
        if self.crashed:
            raise SimulatedCrash(
                f"i/o after simulated crash: {name} {path}"
            )
        index = self.ops
        self.ops += 1
        self.op_log.append(f"{name} {Path(path).name}")
        if self.crash_at is not None and index == self.crash_at:
            self.crashed = True
            return True
        return False

    def _dying_write(self, path: Any, data: bytes, append: bool) -> None:
        """Leave behind whatever this mode's dying write leaves behind."""
        if self.mode == "torn":
            damaged: Optional[bytes] = data[: len(data) // 2]
        elif self.mode == "flip" and data:
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 2] ^= 0x10
            damaged = bytes(corrupted)
        else:
            damaged = None
        if damaged is not None:
            # Plain unfsynced write: the bytes may or may not have reached
            # the platter; the harness assumes the worst (they did).
            with open(path, "ab" if append else "wb") as handle:
                handle.write(damaged)

    def mkdir(self, path: Any) -> None:
        if self._tick("mkdir", path):
            raise SimulatedCrash(f"crash before mkdir {path}")
        super().mkdir(path)

    def append_line(self, path: Any, text: str) -> None:
        if self._tick("append", path):
            self._dying_write(path, text.encode("utf-8"), append=True)
            raise SimulatedCrash(f"crash during append to {path}")
        super().append_line(path, text)

    def write_bytes(self, path: Any, data: bytes) -> None:
        if self._tick("write", path):
            self._dying_write(path, data, append=False)
            raise SimulatedCrash(f"crash during write of {path}")
        super().write_bytes(path, data)

    def replace(self, source: Any, target: Any) -> None:
        if self._tick("replace", target):
            # A lost rename: the atomic os.replace never happened (or its
            # directory entry never became durable, which reads the same).
            raise SimulatedCrash(f"crash before replace onto {target}")
        super().replace(source, target)

    def fsync_dir(self, path: Any) -> None:
        if self._tick("fsync_dir", path):
            raise SimulatedCrash(f"crash before fsync of directory {path}")
        super().fsync_dir(path)

    def remove(self, path: Any) -> None:
        if self._tick("remove", path):
            raise SimulatedCrash(f"crash before remove of {path}")
        super().remove(path)

    def truncate(self, path: Any, size: int) -> None:
        if self._tick("truncate", path):
            raise SimulatedCrash(f"crash before truncate of {path}")
        super().truncate(path, size)


def kill_point_sweep(
    workload: Callable[[CrashPointIO], Any],
    verify: Callable[[int], None],
    *,
    mode: str = "clean",
    limit: int = 100000,
) -> int:
    """Kill ``workload`` at every filesystem write point; verify each wreck.

    ``workload(io)`` must run the system under test with ``io`` as its
    :class:`DurableIO` (building any paths it needs fresh each call) and
    let :class:`SimulatedCrash` propagate.  For each kill point ``k`` —
    0, 1, 2, … — the workload runs until its ``k``-th mutation dies, then
    ``verify(k)`` asserts whatever recovery invariant the test is about
    (typically: ``recover()`` is bit-exact over the surviving prefix or
    explicitly lossy).  The sweep ends at the first ``k`` the workload
    survives outright (it has fewer than ``k+1`` write points) and returns
    the number of kill points exercised.
    """
    point = 0
    while point < limit:
        io = CrashPointIO(crash_at=point, mode=mode)
        try:
            workload(io)
        except SimulatedCrash:
            pass
        if not io.crashed:
            return point
        verify(point)
        point += 1
    raise FaultInjectionError(
        f"kill-point sweep did not terminate within {limit} write points"
    )


def truncate_file_at(path: Union[str, Path], size: int) -> None:
    """Cut a file to ``size`` bytes (the every-offset torn-write fuzzer)."""
    with open(path, "r+b") as handle:
        handle.truncate(int(size))


def flip_bit(path: Union[str, Path], byte_offset: int, bit: int = 0) -> None:
    """Flip one bit of one byte in place (media-corruption fuzzer)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    data[int(byte_offset)] ^= 1 << int(bit)
    path.write_bytes(bytes(data))
