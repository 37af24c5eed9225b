"""A work/depth cost tracker emulating the CRCW PRAM accounting.

Algorithms in this package execute as vectorised NumPy passes, but each
pass corresponds to a well-defined PRAM step (e.g. "every edge checks its
cluster membership" is O(m) work, O(1) depth; "each vertex takes a
minimum over its incident edges" is O(m) work, O(log n) depth via a
balanced reduction tree).  Implementations call :meth:`PRAMTracker.charge`
with those costs as they go, and the benchmark harness reads the totals.

Charges compose sequentially: work adds and depth adds.  A step whose
branches run side by side is one charge of the summed work at the
deepest branch's depth.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.parallel.metrics import PRAMCost

__all__ = ["PRAMTracker"]


class PRAMTracker:
    """Accumulates PRAM work/depth with labelled breakdowns.

    Example
    -------
    >>> tracker = PRAMTracker()
    >>> tracker.charge(work=100, depth=1, label="scan")
    >>> tracker.total.work
    100.0
    """

    def __init__(self) -> None:
        self._work = 0.0
        self._depth = 0.0
        # label -> [work, depth], summed as floats on every labelled charge;
        # ``breakdown()`` builds the ``PRAMCost`` records only when read.
        self._by_label: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ #
    # Charging
    # ------------------------------------------------------------------ #

    def charge(self, work: float, depth: float, label: Optional[str] = None) -> None:
        """Charge ``work`` operations on a critical path of ``depth`` steps."""
        if work < 0 or depth < 0:
            raise ValueError("work and depth must be non-negative")
        self._work += work
        self._depth += depth
        if label is not None:
            totals = self._by_label.get(label)
            if totals is None:
                totals = self._by_label[label] = [0.0, 0.0]
            totals[0] += work
            totals[1] += depth

    def charge_parallel_for(
        self, num_items: int, work_per_item: float = 1.0, label: Optional[str] = None
    ) -> None:
        """Charge a flat parallel loop: ``num_items * work_per_item`` work, O(1) depth."""
        self.charge(work=num_items * work_per_item, depth=1.0, label=label)

    def charge_reduction(
        self, num_items: int, label: Optional[str] = None
    ) -> None:
        """Charge a balanced-tree reduction over ``num_items`` values.

        Work O(num_items), depth O(log2 num_items) — the standard PRAM cost
        of min/sum/concatenate reductions used by the spanner and sampling
        steps.
        """
        depth = float(math.ceil(math.log2(max(num_items, 2))))
        self.charge(work=float(max(num_items, 1)), depth=depth, label=label)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    @property
    def total(self) -> PRAMCost:
        """Total accumulated cost."""
        return PRAMCost(self._work, self._depth)

    def breakdown(self) -> Dict[str, PRAMCost]:
        """Per-label cost breakdown (labels charged via ``charge(label=...)``)."""
        return {label: PRAMCost(work, depth) for label, (work, depth) in self._by_label.items()}

