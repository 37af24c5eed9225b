"""Exception hierarchy for the ``repro`` package.

All library-specific failures derive from :class:`ReproError`, so callers
can catch one type.  Individual subsystems raise the more specific
subclasses below; generic argument errors still use ``ValueError`` /
``TypeError`` as is idiomatic.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Malformed or unsupported graph input (bad edges, negative weights...)."""


class DisconnectedGraphError(GraphError):
    """An operation that requires connectivity received a disconnected graph."""


class NotSDDError(ReproError):
    """A matrix passed to the SDD solver stack is not symmetric diagonally dominant."""


class ConvergenceError(ReproError):
    """An iterative solver failed to reach the requested tolerance.

    ``failures`` optionally carries the per-column
    :class:`repro.linalg.cg.ColumnFailure` records of a blocked solve, so
    callers catching the error can see *which* right-hand sides failed and
    how (status, iterations, final residual) instead of only the worst one.
    """

    def __init__(
        self,
        message: str,
        iterations: int | None = None,
        residual: float | None = None,
        failures: list | None = None,
    ):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.failures = failures if failures is not None else []


class SparsificationError(ReproError):
    """The sparsification pipeline could not produce a valid output."""


class SimulationError(ReproError):
    """The PRAM or distributed simulator was driven into an invalid state."""


class BackendError(ReproError):
    """An execution backend was misconfigured or could not be resolved."""


class CheckpointError(BackendError):
    """A durable stream record (journal, snapshot, manifest) is unreadable or inconsistent."""


class StreamingError(ReproError):
    """The streaming sparsifier was misconfigured or driven into an invalid state."""


class FaultInjectionError(ReproError):
    """Deterministic failure raised by :mod:`repro.testing.faults` injectors."""


class MethodError(ReproError):
    """A sparsifier method name could not be resolved, or the method cannot serve the call."""


class RequestError(ReproError):
    """A :class:`repro.api.SparsifyRequest` failed validation or deserialisation."""


class MessageTooLargeError(SimulationError):
    """A distributed message exceeded the O(log n) size budget of the model."""
