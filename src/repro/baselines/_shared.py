"""Shared accessor mixin for the baseline result types.

Every baseline result exposes the same unified accessor set
(``sparsifier`` / ``input_edges`` / ``output_edges`` / ``num_edges`` /
``reduction_factor``) so the engine and the comparison tables treat them
interchangeably; this mixin keeps the edge-case conventions (empty
graphs) in exactly one place.
"""

from __future__ import annotations

__all__ = ["UnifiedResultAccessors"]


class UnifiedResultAccessors:
    """Derived accessors over ``sparsifier`` / ``input_edges`` / ``output_edges``."""

    @property
    def num_edges(self) -> int:
        """Edges in the sparsifier (alias of ``output_edges``)."""
        return self.sparsifier.num_edges

    @property
    def reduction_factor(self) -> float:
        """Input edges divided by output edges (>= 1 for real reductions)."""
        if self.output_edges == 0:
            return float("inf") if self.input_edges else 1.0
        return self.input_edges / self.output_edges

