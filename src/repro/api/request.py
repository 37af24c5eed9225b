"""The unified request model: one validated, serialisable call description.

A :class:`SparsifyRequest` captures *everything* about a sparsification
call except the graph itself: the method, the spectral parameters, the
algorithm config (which also says where batch jobs run: backend and
workers live in the config and nowhere else), the seed, and any
method-specific options.  Requests are immutable
(frozen dataclass), validate eagerly at construction, and round-trip
through plain JSON-compatible dicts via :meth:`to_dict` /
:meth:`from_dict` — which is what lets a serving layer log, replay, and
ship requests between processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.core.config import SparsifierConfig
from repro.exceptions import RequestError

__all__ = ["SparsifyRequest"]


@dataclass(frozen=True)
class SparsifyRequest:
    """Immutable description of one sparsification call.

    Attributes
    ----------
    method:
        Method name or alias (see
        :func:`repro.api.available_method_names`).  Existence is checked
        when an :class:`repro.api.Engine` resolves the request, not here,
        so building a request never imports the method runners.
    epsilon:
        Target spectral parameter; ``None`` defers to ``config.epsilon``
        (the legacy entry points' convention).
    rho:
        Sparsification factor for multi-round methods (ignored by the
        single-shot baselines).
    config:
        Optional :class:`~repro.core.config.SparsifierConfig`; ``None``
        means the practical defaults (serial).  Its ``backend`` /
        ``max_workers`` fields choose where ``Engine.run_many`` jobs run.
    seed:
        Non-negative integer RNG seed or ``None`` (OS entropy).
        Restricted to ints so requests stay JSON-serialisable; pass
        generators to the legacy functions directly if you need them.
    certify:
        Measure the spectral certificate of the output (dense eigensolve
        — small graphs only).
    options:
        Method-specific keyword arguments forwarded to the method's
        runner (e.g. ``probability`` for ``uniform``,
        ``use_approximate_resistances`` for ``spielman-srivastava``).
        Must be JSON-serialisable for :meth:`to_dict` round-tripping.
    """

    method: str = "koutis"
    epsilon: Optional[float] = None
    rho: float = 4.0
    config: Optional[SparsifierConfig] = None
    seed: Optional[int] = None
    certify: bool = False
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise RequestError(f"method must be a non-empty string, got {self.method!r}")
        if self.epsilon is not None:
            if not isinstance(self.epsilon, (int, float)) or isinstance(self.epsilon, bool):
                raise RequestError(f"epsilon must be a number or None, got {self.epsilon!r}")
            if not 0 < float(self.epsilon) <= 1:
                raise RequestError(f"epsilon must lie in (0, 1], got {self.epsilon}")
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if not isinstance(self.rho, (int, float)) or isinstance(self.rho, bool):
            raise RequestError(f"rho must be a number, got {self.rho!r}")
        if self.rho < 1:
            raise RequestError(f"rho must be >= 1, got {self.rho}")
        object.__setattr__(self, "rho", float(self.rho))
        if self.config is not None and not isinstance(self.config, SparsifierConfig):
            raise RequestError(
                f"config must be a SparsifierConfig or None, got {type(self.config).__name__}"
            )
        if self.seed is not None and (
            not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0
        ):
            raise RequestError(
                f"seed must be a non-negative int or None (JSON-serialisable), got {self.seed!r}"
            )
        if not isinstance(self.certify, bool):
            raise RequestError(f"certify must be a bool, got {self.certify!r}")
        if not isinstance(self.options, Mapping):
            raise RequestError(f"options must be a mapping, got {type(self.options).__name__}")
        bad_keys = [k for k in self.options if not isinstance(k, str)]
        if bad_keys:
            raise RequestError(f"options keys must be strings, got {bad_keys!r}")
        # Own the mapping so later mutation of the caller's dict cannot
        # reach into the (frozen) request.
        object.__setattr__(self, "options", dict(self.options))

    # ------------------------------------------------------------------ #

    def with_overrides(self, **kwargs: Any) -> "SparsifyRequest":
        """Copy with selected fields replaced (frozen-dataclass convenience)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # JSON round-tripping.
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-compatible dict; exact inverse of :meth:`from_dict`."""
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "rho": self.rho,
            "config": asdict(self.config) if self.config is not None else None,
            "seed": self.seed,
            "certify": self.certify,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SparsifyRequest":
        """Build a request from a (possibly partial) dict.

        Missing keys take the field defaults; unknown keys raise
        :class:`repro.exceptions.RequestError` so typos in config files
        fail loudly instead of being silently ignored.
        """
        if not isinstance(data, Mapping):
            raise RequestError(f"expected a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown SparsifyRequest key(s): {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = {k: v for k, v in data.items() if k in known}
        config = kwargs.get("config")
        if isinstance(config, Mapping):
            try:
                kwargs["config"] = SparsifierConfig(**config)
            except TypeError as exc:
                raise RequestError(f"invalid config payload: {exc}") from exc
        return cls(**kwargs)
