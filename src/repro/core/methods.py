"""Engine adapters for the paper's sparsifiers.

Registers the two core entry points with the unified method registry
(:mod:`repro.api.registry`):

``koutis``
    :func:`repro.core.sparsify.parallel_sparsify` — Algorithm 2,
    ``PARALLELSPARSIFY``, with per-round progress events.
``koutis-distributed``
    :func:`repro.core.distributed_sparsify.distributed_parallel_sparsify`
    — the same pipeline executed on the synchronous CONGEST simulator,
    with measured rounds/messages.

Batches of graphs go through :meth:`repro.api.Engine.run_many`, not
through a method.

Each adapter is a thin delegation: the legacy function remains the
implementation, the adapter only translates the engine's uniform calling
convention (see :func:`repro.api.registry.register_method`) and forwards
per-round telemetry.  Outputs are bit-identical to calling the legacy
function with the same seed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.api.registry import register_method
from repro.core.config import SparsifierConfig
from repro.core.distributed_sparsify import (
    DistributedSampleResult,
    distributed_parallel_sparsify,
)
from repro.core.sparsify import RoundRecord, parallel_sparsify
from repro.graphs.graph import Graph

__all__ = ["run_koutis", "run_koutis_distributed"]


@register_method(
    "koutis",
    description="PARALLELSPARSIFY: spanner-bundle sampling (Koutis SPAA'14, Algorithm 2)",
    aliases=("parallel-sparsify",),
)
def run_koutis(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`parallel_sparsify`."""

    def on_round(record: RoundRecord) -> None:
        emit(
            "round",
            round_index=record.round_index,
            input_edges=record.input_edges,
            output_edges=record.output_edges,
            degenerate=record.degenerate,
        )

    return parallel_sparsify(
        graph,
        epsilon=epsilon,
        rho=rho,
        config=config,
        seed=seed,
        on_round=on_round,
        **options,
    )


@register_method(
    "koutis-distributed",
    description="PARALLELSPARSIFY on the synchronous CONGEST simulator (Theorems 4-5 costs)",
    aliases=("distributed",),
)
def run_koutis_distributed(
    graph: Graph,
    *,
    config: SparsifierConfig,
    epsilon: Optional[float],
    rho: float,
    seed: Any,
    options: Dict[str, Any],
    emit: Callable[..., None],
):
    """Engine adapter delegating to :func:`distributed_parallel_sparsify`."""

    def on_round(round_index: int, result: DistributedSampleResult) -> None:
        emit(
            "round",
            round_index=round_index,
            input_edges=result.input_edges,
            output_edges=result.output_edges,
            degenerate=result.degenerate,
        )

    return distributed_parallel_sparsify(
        graph,
        epsilon=epsilon,
        rho=rho,
        config=config,
        seed=seed,
        on_round=on_round,
        **options,
    )
