"""Sparsifier-method table: one namespace for every sparsification algorithm.

Each method is a callable adapter that runs one sparsification algorithm
against the engine's uniform calling convention, so
``repro.sparsify(g, method="koutis")`` and
``repro.sparsify(g, method="uniform")`` are the same call with one string
changed — which is exactly the method-ablation workflow the paper's
experiments need.

The methods live in one fixed table (:func:`_method_table`) of seven
rows: name, runner and aliases (README's method table describes each).
Adding a built-in method means writing its runner next to the others in
its adapter module (:mod:`repro.core.methods`,
:mod:`repro.baselines.methods` or :mod:`repro.streaming.method`) and
adding one row here.

Every runner is called with keyword arguments only:

``config``
    The fully resolved :class:`repro.core.config.SparsifierConfig`
    (the request's, or the practical defaults).
``epsilon``
    The request's epsilon, or ``None`` meaning "use ``config.epsilon``"
    (the same convention the legacy entry points use).
``rho``
    Sparsification factor; methods without a multi-round structure
    ignore it.
``seed``
    An ``int``, ``None``, or a :class:`numpy.random.Generator` (batch
    fan-out passes per-job generators split before dispatch).
``options``
    Method-specific keyword arguments from
    :attr:`repro.api.SparsifyRequest.options`, as a plain dict.
``emit``
    Progress callback ``emit(kind, *, round_index=None, input_edges=0,
    output_edges=0, degenerate=False)``; called with ``"round"`` once per
    round (single-shot methods never call it — the engine emits the final
    ``"result"`` event itself).  Never ``None``: the engine installs a
    no-op when the caller did not ask for telemetry.

Every runner returns a native result exposing ``sparsifier`` (a
:class:`repro.graphs.graph.Graph`), ``input_edges`` and ``output_edges``
as ints, and ``cost`` where it has one; ``tests/test_api_engine.py``
checks this for every table entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, Tuple

from repro.exceptions import MethodError

__all__ = [
    "MethodSpec",
    "get_method",
    "available_methods",
    "available_method_names",
]


@dataclass(frozen=True)
class MethodSpec:
    """One method of the table: its canonical name, runner and aliases."""

    name: str
    runner: Callable[..., object]
    aliases: Tuple[str, ...] = ()


@cache
def _method_table() -> Mapping[str, MethodSpec]:
    """Every accepted name (canonical or alias) mapped to its spec, read-only.

    Built on first lookup: the adapter modules reach
    :mod:`repro.api.result` (through :mod:`repro.streaming`), so
    importing them while this module loads would be an import cycle.
    """
    from repro.baselines.methods import (
        run_k_out,
        run_kapralov_panigrahi,
        run_spielman_srivastava,
        run_uniform,
    )
    from repro.core.methods import run_koutis, run_koutis_distributed
    from repro.streaming.method import run_streaming

    specs = (
        MethodSpec("koutis", run_koutis, ("parallel-sparsify",)),
        MethodSpec("koutis-distributed", run_koutis_distributed, ("distributed",)),
        MethodSpec("spielman-srivastava", run_spielman_srivastava, ("ss",)),
        MethodSpec("uniform", run_uniform),
        MethodSpec("kapralov-panigrahi", run_kapralov_panigrahi, ("kp",)),
        MethodSpec("k-out", run_k_out, ("kout",)),
        MethodSpec("streaming", run_streaming, ("stream",)),
    )
    return MappingProxyType({name: spec for spec in specs for name in (spec.name, *spec.aliases)})


def get_method(name: str) -> MethodSpec:
    """Resolve ``name`` (canonical or alias) into a :class:`MethodSpec`."""
    if not isinstance(name, str):
        raise MethodError(f"method must be a string name, got {name!r}")
    spec = _method_table().get(name)
    if spec is None:
        raise MethodError(
            f"unknown sparsifier method {name!r}; available: "
            f"{', '.join(available_methods())}"
        )
    return spec


def available_methods() -> Tuple[str, ...]:
    """Canonical names of all methods, sorted."""
    return tuple(sorted({spec.name for spec in _method_table().values()}))


def available_method_names() -> Tuple[str, ...]:
    """Every name :func:`get_method` accepts: canonical names plus aliases."""
    return tuple(sorted(_method_table()))

