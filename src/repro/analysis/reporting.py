"""Plain-text experiment tables.

The benchmark harness prints rows comparable to what the paper's theorems
predict; since this is a text-only environment the output is aligned
monospace tables rather than figures.  Keeping the
formatting here means every benchmark reports results the same way: the
E1–E12 tables that ``benchmarks/bench_*.py`` print come from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

__all__ = ["ExperimentTable", "format_table", "comparison_table"]


def _format_value(value: Any, precision: int = 4) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    columns: Sequence[str], rows: Sequence[Sequence[Any]], title: Optional[str] = None
) -> str:
    """Render an aligned monospace table."""
    rendered_rows = [[_format_value(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def comparison_table(results: Sequence[Any], title: Optional[str] = None) -> str:
    """Side-by-side table over unified method results.

    Accepts the :class:`repro.api.UnifiedResult` objects produced by
    :func:`repro.api.compare_methods` (anything exposing ``summary()``
    works) and renders one row per method: edges kept, reduction, rounds,
    certificate bounds when measured, and wall time.  This is the
    rendering behind the ``repro-sparsify compare`` subcommand.
    """
    columns = [
        "method",
        "input_m",
        "kept_m",
        "reduction",
        "rounds",
        "cert_lower",
        "cert_upper",
        "eps_achieved",
        "wall_s",
    ]
    rows = []
    for result in results:
        summary = result.summary()
        rows.append(
            [
                summary["method"],
                summary["input_edges"],
                summary["output_edges"],
                summary["reduction"],
                summary["rounds"],
                summary["cert_lower"] if summary["cert_lower"] is not None else "-",
                summary["cert_upper"] if summary["cert_upper"] is not None else "-",
                summary["eps_achieved"] if summary["eps_achieved"] is not None else "-",
                summary["wall_seconds"],
            ]
        )
    return format_table(columns, rows, title=title or "Method comparison")


@dataclass
class ExperimentTable:
    """Accumulates rows for one experiment and renders them.

    Example
    -------
    >>> table = ExperimentTable("E4", ["n", "eps", "measured"])
    >>> table.add_row(n=256, eps=0.5, measured=0.31)
    >>> print(table.render())  # doctest: +SKIP
    """

    experiment_id: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"missing columns {missing} for experiment {self.experiment_id}")
        self.rows.append([values[c] for c in self.columns])

    def render(self, title: Optional[str] = None) -> str:
        return format_table(
            self.columns, self.rows, title=title or f"Experiment {self.experiment_id}"
        )

