"""Simulated microsecond clock.

The paper's attack measures microsecond-level differences in query response
times (negative keys ~5-10 us served from memory, false positives ~25-35 us
due to SSD I/O).  Wall-clock timing in Python cannot resolve that reliably,
so the entire reproduction runs on simulated time: every component on the
query path *charges* the clock for the work it models, and a "response time"
is simply the simulated time elapsed between request start and end.

This is the substitution documented in DESIGN.md section 2: the attack only
depends on the shape of the latency distribution, which the cost models
preserve, not on real silicon.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.common.errors import ConfigError


class SimClock:
    """Monotonic simulated clock with microsecond resolution.

    Time only moves when a component calls :meth:`charge` (or
    :meth:`advance_to`); there is no background tick.  This makes every
    experiment deterministic and lets the attack's "wait for page-cache
    eviction" step advance simulated hours in zero wall-clock time.

    ``now_us`` is a plain attribute, read by everyone.  The per-key hot
    paths (the point-read kernel, the page cache's hit path) charge costs
    they know to be positive as ``clock.now_us += cost`` — the one float
    addition :meth:`charge` performs, without its frame; everything else
    charges through :meth:`charge`.
    """

    __slots__ = ("now_us",)

    def __init__(self, start_us: float = 0.0) -> None:
        if start_us < 0:
            raise ConfigError(f"clock cannot start at negative time {start_us}")
        #: Current simulated time in microseconds.
        self.now_us = float(start_us)

    def charge(self, duration_us: float) -> None:
        """Advance the clock by ``duration_us`` of modelled work."""
        if duration_us < 0:
            raise ConfigError(f"cannot charge negative time {duration_us}")
        self.now_us += duration_us

    def advance_to(self, deadline_us: float) -> None:
        """Jump forward to an absolute time (no-op if already past it)."""
        if deadline_us > self.now_us:
            self.now_us = deadline_us

    @contextmanager
    def measure(self) -> Iterator["StopwatchHandle"]:
        """Context manager yielding a handle whose ``elapsed_us`` is the
        simulated duration of the enclosed block — the attacker's stopwatch.
        """
        handle = StopwatchHandle(self)
        yield handle
        handle.stop()


class StopwatchHandle:
    """Start/stop pair over a :class:`SimClock` (see ``SimClock.measure``)."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now_us
        self._end: float = -1.0

    def stop(self) -> None:
        """Freeze the elapsed time at the current simulated instant."""
        if self._end < 0:
            self._end = self._clock.now_us

    @property
    def elapsed_us(self) -> float:
        """Simulated microseconds between construction and stop (or now)."""
        end = self._end if self._end >= 0 else self._clock.now_us
        return end - self._start
