"""Cost records for the PRAM and synchronous distributed models.

Both records compose sequentially (``then``, or ``+``): PRAM work and
depth add; distributed rounds and messages add, and the maximum message
size is the max over the parts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PRAMCost", "DistributedCost"]


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

    def __add__(self, other: "DistributedCost") -> "DistributedCost":
        return self.then(other)

