"""Shared helpers for the benchmark/experiment harness.

Every benchmark regenerates one experiment (E1–E12): it runs a parameter
sweep, prints the measured table (visible with ``pytest benchmarks/
--benchmark-only -s``), asserts the qualitative shape the paper predicts,
and times the core kernel through pytest-benchmark.

Sizes are chosen so the full suite completes in a few minutes on a laptop.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import ExperimentTable
from repro.graphs import generators as gen


def er_graph(n: int, p: float, seed: int = 0):
    """Connected unweighted ER graph used across experiments."""
    return gen.erdos_renyi_graph(n, p, seed=seed, ensure_connected=True)


def print_table(table: ExperimentTable, note: str = "") -> None:
    """Print an experiment table (shown when pytest runs with -s)."""
    print()
    print(table.render())
    if note:
        print(note)


@pytest.fixture(scope="session")
def dense_er_300():
    """Dense-ish ER graph: the 'dense instance' workload the paper motivates."""
    return er_graph(300, 0.3, seed=7)


@pytest.fixture(scope="session")
def er_200():
    return er_graph(200, 0.25, seed=3)
