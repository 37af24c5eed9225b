"""Shared fixtures for the test suite.

Graphs used across many test modules are built once per session (they are
immutable, so sharing is safe).  Sizes are kept small enough that the exact
(dense pseudoinverse / dense eigensolver) reference paths stay fast.  The
per-test timeout lives in the repository's root ``conftest.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph


@pytest.fixture
def fail_once_part_way(monkeypatch):
    """Make the ``call``-th call of ``owner.name`` run, then raise ``MemoryError``.

    The failure lands part-way through the work item that made the call,
    after the call has drawn from the item's RNG streams.  ``install``
    returns a list that records the failure once it has fired.  The count
    is global, so on a thread backend which item fails depends on the
    schedule; a retry must be output-neutral whichever it is.
    """

    def install(owner, name, call=2):
        original = getattr(owner, name)
        calls = itertools.count(1)
        fired = []

        def flaky(*args, **kwargs):
            result = original(*args, **kwargs)
            if next(calls) == call:
                fired.append(name)
                raise MemoryError(f"injected failure after call {call} of {name}")
            return result

        monkeypatch.setattr(owner, name, flaky)
        return fired

    return install


@pytest.fixture
def cli_error(capsys):
    """Read what a refused ``repro.cli.main`` call wrote to stderr.

    ``read()`` checks it is one ``repro-sparsify: error:`` line and
    returns it, for the test to match its message.
    """

    def read():
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro-sparsify: error: "), err
        return err

    return read


@pytest.fixture(scope="session")
def triangle_graph() -> Graph:
    """Unweighted triangle: the smallest graph with a cycle."""
    return Graph(3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def weighted_path() -> Graph:
    """Weighted path 0-1-2-3 with distinct weights."""
    return Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 4.0])


@pytest.fixture(scope="session")
def small_er_graph() -> Graph:
    """Connected Erdős–Rényi graph, 60 vertices."""
    return generators.erdos_renyi_graph(60, 0.15, seed=11, ensure_connected=True)


@pytest.fixture(scope="session")
def medium_er_graph() -> Graph:
    """Denser connected Erdős–Rényi graph, 120 vertices."""
    return generators.erdos_renyi_graph(120, 0.2, seed=7, ensure_connected=True)


@pytest.fixture(scope="session")
def grid_graph_8x8() -> Graph:
    """8x8 grid (structured sparse graph)."""
    return generators.grid_graph(8, 8)


@pytest.fixture(scope="session")
def dumbbell() -> Graph:
    """Two 12-cliques joined by a 3-edge path (high-leverage bridge edges)."""
    return generators.dumbbell_graph(12, path_length=3)


@pytest.fixture(scope="session")
def weighted_er_graph() -> Graph:
    """Connected ER graph with random weights in [0.5, 5]."""
    return generators.erdos_renyi_graph(
        80, 0.12, seed=23, weight_range=(0.5, 5.0), ensure_connected=True
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
