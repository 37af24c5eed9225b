"""Shared utilities: RNG management and validation.

These helpers are deliberately dependency-light so that every other
subpackage can import them without creating cycles.
"""

from repro.utils.rng import RandomState, as_rng, split_rng, spawn_rngs
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "RandomState",
    "as_rng",
    "split_rng",
    "spawn_rngs",
    "check_integer",
    "check_probability",
]
