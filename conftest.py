"""The per-test timeout for every pytest tree in the repository.

``session_timeout`` (pyproject.toml) is a wall-clock ceiling per test: the
resilience layer's retry/backoff loops mean a bug can hang instead of
fail, and a hung test must fail the build, not stall it.  Living at the
repository root, the hook covers ``tests/``, ``e2ebench/`` and the
``benchmarks/bench_*.py`` experiment tables alike.  It is implemented with
``SIGALRM`` (no third-party plugin is available in the pinned
environment); on platforms without ``SIGALRM`` it is a no-op.
"""

from __future__ import annotations

import signal

import pytest

_HAS_SIGALRM = hasattr(signal, "SIGALRM")


def pytest_addoption(parser):
    parser.addini(
        "session_timeout",
        "per-test timeout in seconds enforced via SIGALRM (0 disables)",
        default="0",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    timeout = float(item.config.getini("session_timeout"))
    if not _HAS_SIGALRM or timeout <= 0:
        yield
        return

    def _on_timeout(signum, frame):
        pytest.fail(
            f"test exceeded the global {timeout:.0f}s timeout "
            "(hung retry/backoff loop?)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
