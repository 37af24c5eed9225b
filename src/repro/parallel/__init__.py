"""Parallel and distributed execution models.

The paper's results are stated in two machine models:

* the **CRCW PRAM**, where the relevant costs are *work* (total operations)
  and *depth* (parallel time), and
* the **synchronous distributed model** (CONGEST-style), where the costs
  are *rounds*, *total communication*, and *message size* (required to be
  O(log n) bits/words).

Running on one laptop we cannot measure those costs with a stopwatch, so
this subpackage provides the cost models themselves:

* :mod:`repro.parallel.metrics` — work/depth and rounds/messages records
  with their sequential composition rule;
* :mod:`repro.parallel.pram` — a tracker that algorithm implementations
  charge as they execute their (vectorised) steps, reproducing the
  quantities bounded by Corollary 2 and Theorems 4–5;
* :mod:`repro.parallel.congest` — the synchronous message-passing (CONGEST)
  round engine: one round is a handful of flat NumPy passes, with a
  broadcast held as its senders and point-to-point messages as their
  slots, and the engine counts rounds/messages/sizes and enforces the
  word limit (Corollary 3); the
  per-node object simulator it replaced is kept in
  :mod:`repro.spanners._reference` as the parity tests' ground truth;
* :mod:`repro.parallel.backends` — the three execution backends
  (serial / thread / process) that run independent jobs
  (:meth:`repro.api.Engine.run_many`) and stream compactions; a
  :class:`~repro.core.config.SparsifierConfig` names the one a fan-out
  uses, and
  :meth:`~repro.core.config.SparsifierConfig.execution_backend` builds it.
"""

from repro.parallel.metrics import DistributedCost, PRAMCost
from repro.parallel.pram import PRAMTracker
from repro.parallel.congest import (
    BroadcastBlock,
    ColumnarProgram,
    ColumnarSimulationResult,
    ColumnarSimulator,
    MessageBlock,
)
from repro.parallel.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.parallel.failure import (
    FailurePolicy,
    FailureRecord,
    MapOutcome,
)

__all__ = [
    "PRAMCost",
    "DistributedCost",
    "PRAMTracker",
    "ColumnarProgram",
    "ColumnarSimulationResult",
    "ColumnarSimulator",
    "MessageBlock",
    "BroadcastBlock",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "get_backend",
    "FailurePolicy",
    "FailureRecord",
    "MapOutcome",
]
