"""Cost records for the PRAM and synchronous distributed models.

Composition rules follow the standard work/depth calculus:

* sequential composition adds work and adds depth;
* parallel composition adds work but takes the maximum depth.

For the distributed model, rounds compose sequentially (add) and messages
always add; the maximum message size is the max over parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "PRAMCost",
    "DistributedCost",
    "combine_parallel",
    "combine_concurrent",
]


@dataclass(frozen=True)
class PRAMCost:
    """Work/depth cost of a PRAM computation.

    Attributes
    ----------
    work:
        Total number of primitive operations across all processors.
    depth:
        Parallel time (length of the critical path).
    """

    work: float = 0.0
    depth: float = 0.0

    def then(self, other: "PRAMCost") -> "PRAMCost":
        """Sequential composition: work adds, depth adds."""
        return PRAMCost(self.work + other.work, self.depth + other.depth)

    def alongside(self, other: "PRAMCost") -> "PRAMCost":
        """Parallel composition: work adds, depth is the max."""
        return PRAMCost(self.work + other.work, max(self.depth, other.depth))

    def scaled(self, factor: float) -> "PRAMCost":
        """Repeat the computation ``factor`` times sequentially."""
        return PRAMCost(self.work * factor, self.depth * factor)

    def __add__(self, other: "PRAMCost") -> "PRAMCost":
        return self.then(other)


@dataclass(frozen=True)
class DistributedCost:
    """Round/message cost of a synchronous distributed computation.

    Attributes
    ----------
    rounds:
        Number of synchronous communication rounds.
    messages:
        Total number of messages sent.
    max_message_words:
        Largest message payload observed, measured in machine words
        (the model requires this to stay O(log n)).
    """

    rounds: int = 0
    messages: int = 0
    max_message_words: int = 0

    def then(self, other: "DistributedCost") -> "DistributedCost":
        """Sequential composition of two distributed phases."""
        return DistributedCost(
            self.rounds + other.rounds,
            self.messages + other.messages,
            max(self.max_message_words, other.max_message_words),
        )

    def alongside(self, other: "DistributedCost") -> "DistributedCost":
        """Concurrent composition: independent networks (the jobs of one
        batch) run in lock-step, so rounds take the max while messages add."""
        return DistributedCost(
            max(self.rounds, other.rounds),
            self.messages + other.messages,
            max(self.max_message_words, other.max_message_words),
        )

    def __add__(self, other: "DistributedCost") -> "DistributedCost":
        return self.then(other)


def combine_parallel(costs: Iterable[PRAMCost]) -> PRAMCost:
    """Fold a sequence of PRAM costs executed simultaneously."""
    total = PRAMCost()
    for cost in costs:
        total = total.alongside(cost)
    return total


def combine_concurrent(costs: Iterable[DistributedCost]) -> DistributedCost:
    """Fold distributed costs of independent networks executing concurrently."""
    total = DistributedCost()
    for cost in costs:
        total = total.alongside(cost)
    return total
