"""The one monotonic clock for serving/resilience timing.

Before this module existed the serving stack mixed two clock domains:
``serve.engine`` stamped request submit times and deadlines with
``time.perf_counter()`` while ``InferenceServer.drain()`` and the
circuit breaker used ``time.monotonic()``.  Both are monotonic, but
their epochs differ, so any absolute timestamp computed in one domain
and compared in the other is garbage — the classic latent bug that only
fires when a refactor moves a deadline check across the boundary.

Every serving/resilience component now reads :func:`now` instead, which
makes the domain single by construction *and* injectable: tests swap in
a :class:`ManualClock` (via :func:`set_source` or the :func:`patched`
context manager) and drive deadline / breaker-dwell arithmetic
deterministically instead of sleeping; :func:`sleep` (retry backoff)
advances a :class:`ManualClock` instead of blocking.

``tests/obs/test_clock.py`` enforces the seam with a source scan: the
serving/resilience modules must not call ``time.monotonic()``,
``time.perf_counter()`` or ``time.sleep()`` directly.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

__all__ = ["ManualClock", "now", "patched", "reset_source", "set_source",
           "sleep"]

#: The active time source.  Defaults to ``time.monotonic`` — the clock
#: the stdlib recommends for interval/deadline arithmetic (unaffected by
#: wall-clock steps, never goes backwards).
_source: Callable[[], float] = time.monotonic


def now() -> float:
    """Seconds on the injected monotonic clock."""
    return _source()


def sleep(seconds: float) -> None:
    """Advance a :class:`ManualClock` source by ``seconds``, else sleep."""
    source = _source
    if isinstance(source, ManualClock):
        source.advance(seconds)
    else:
        time.sleep(seconds)


def set_source(source: Callable[[], float]) -> None:
    """Install a replacement time source (e.g. a :class:`ManualClock`)."""
    if not callable(source):
        raise TypeError(f"clock source must be callable, got {source!r}")
    global _source
    _source = source


def reset_source() -> None:
    """Restore the default ``time.monotonic`` source."""
    global _source
    _source = time.monotonic


@contextlib.contextmanager
def patched(source: Callable[[], float]) -> Iterator[Callable[[], float]]:
    """Temporarily swap the time source; always restores the previous one."""
    global _source
    previous = _source
    set_source(source)
    try:
        yield source
    finally:
        _source = previous


class ManualClock:
    """A hand-cranked clock for deterministic timing tests.

    Calling the instance returns the current reading; :meth:`advance`
    moves it forward (negative steps are rejected — the contract of the
    seam is monotonicity).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"a monotonic clock cannot rewind ({seconds})")
        self._now += seconds
        return self._now
