"""Reading and writing graphs as plain-text weighted edge lists.

One ``u v w`` triple per line under a ``# n m`` header: the format every
CLI command reads and writes, convenient for interoperability and
eyeballing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

from repro.exceptions import GraphError
from repro.graphs.graph import Graph

__all__ = ["write_edge_list", "read_edge_list"]

PathLike = Union[str, os.PathLike]


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` as a text edge list.

    The first line is ``# <num_vertices> <num_edges>``; each subsequent
    line is ``u v w`` with ``u < v``.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {graph.num_vertices} {graph.num_edges}\n")
        for u, v, w in graph.edges():
            handle.write(f"{u} {v} {w:.17g}\n")


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Lines starting with ``#`` after the header are treated as comments.
    Unweighted lines (``u v``) default to weight 1.
    """
    path = Path(path)
    num_vertices = None
    us, vs, ws = [], [], []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if num_vertices is None:
                    parts = line[1:].split()
                    if len(parts) >= 1:
                        try:
                            num_vertices = int(parts[0])
                        except ValueError as exc:
                            raise GraphError(
                                f"malformed header on line {line_no + 1}: {raw!r}"
                            ) from exc
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"malformed edge on line {line_no + 1}: {raw!r}")
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
            ws.append(float(parts[2]) if len(parts) == 3 else 1.0)
    if num_vertices is None:
        num_vertices = (max(max(us, default=-1), max(vs, default=-1)) + 1) if us else 0
    return Graph(num_vertices, us, vs, ws)

