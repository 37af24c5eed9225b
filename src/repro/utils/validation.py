"""Argument validation helpers shared across the package.

Validation failures raise the package exceptions from
:mod:`repro.exceptions` where a domain-specific error type exists, and
plain ``ValueError``/``TypeError`` otherwise.  Keeping the checks in one
place gives consistent error messages in the public API.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np


def check_integer(value: Any, name: str, minimum: Optional[int] = None) -> int:
    """Validate that ``value`` is an integer (optionally ``>= minimum``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_epsilon(epsilon: Any, name: str = "epsilon") -> float:
    """Validate a spectral approximation parameter: must lie in (0, 1]."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {epsilon}")
    return epsilon
