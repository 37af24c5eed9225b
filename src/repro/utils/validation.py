"""Argument validation helpers shared across the package.

Validation failures raise the package exceptions from
:mod:`repro.exceptions` where a domain-specific error type exists, and
plain ``ValueError``/``TypeError`` otherwise.  Keeping the checks in one
place gives consistent error messages in the public API.
"""

from __future__ import annotations

from typing import Any, Optional, Type

import numpy as np


def check_count(value: Any, name: str, error: Type[Exception] = ValueError) -> int:
    """``value`` as an ``int`` if it is an integer ``>= 1``, else ``error``.

    ``bool`` and non-integral values (``2.5``, ``2.0``) are refused rather
    than truncated; Python and NumPy integers are accepted.  Each caller
    passes the error class its API documents.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    return int(value)


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
