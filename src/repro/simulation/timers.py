"""Coalesced periodic timers for tick-dominated processes.

Periodic loops of the form::

    while True:
        yield env.timeout(interval)
        ...

dominate the event count of fleet-scale runs: heartbeats, failure
detectors, token refills, and monitor samplers each wake once per
interval whether or not there is anything to do.  This module provides
:class:`PeriodicTicker`, the kernel-level building block for *lazy*
periodic processes that skip ahead to the next tick at which something
can actually happen, firing one event where the eager loop fired k.

Tick ``n`` of a ticker anchored at ``t0`` fires at exactly
``t0 + n * interval``: the clock is an integer tick index, never a
chained float sum, so skipping any number of ticks, peeking ahead, and
finding the first tick past a deadline are all O(1) and agree with
each other to the bit.  Wakeups are scheduled with
:meth:`Environment.timeout_at`, so an event lands on the grid float
itself rather than on ``now + (when - now)``.

Ported call sites (``middleware/node.py``, ``migration/throttle.py``,
``migration/controller.py``, ``placement/monitor.py``,
``obs/runtime.py``) each pair the ticker with a settlement rule for
the ticks they skip; ``tests/test_coalesced_timers.py`` checks the
ticker against a brute-force scan of the grid and the throttle against
the analytic token-bucket schedule.  The slackerlint rule SLK011
points hand-rolled periodic loops in hot scopes here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment, Timeout

__all__ = ["PeriodicTicker"]


class PeriodicTicker:
    """A tick clock on the grid ``t0 + n * interval``.

    ``t0`` is the simulated time at construction and ``n`` the integer
    index of the next tick (the first tick fires one interval after
    construction, like an eager loop entered then).

    Usage pattern for a lazy periodic process::

        ticker = PeriodicTicker(env, interval)
        while running:
            ticker.skip_until(deadline)  # no-op ticks before deadline
            yield ticker.tick()          # first tick at/after deadline
            ...                          # settle the skipped ticks

    ``interval`` is fixed at construction; loops whose period changes
    mid-run (RNG-drawn dwell times, adaptive backoff) are out of scope
    and should stay eager.
    """

    __slots__ = ("env", "interval", "_t0", "_n")

    def __init__(self, env: "Environment", interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.interval = interval
        self._t0 = env.now
        self._n = 1

    @property
    def next_time(self) -> float:
        """Timestamp of the next tick (the one :meth:`tick` waits for)."""
        return self._t0 + self._n * self.interval

    def tick(self) -> "Timeout":
        """Event for the next tick; advances the clock by one tick."""
        when = self._t0 + self._n * self.interval
        self._n += 1
        return self.env.timeout_at(when)

    def skip_until(self, limit: float, inclusive: bool = False) -> int:
        """Skip every tick strictly before ``limit`` without events.

        With ``inclusive`` a tick falling exactly on ``limit`` is
        consumed too.  Returns the number of ticks skipped, which are
        counted in ``env.elided_events``.
        """
        if not math.isfinite(limit):
            raise ValueError(f"limit must be finite, got {limit}")
        t0, interval, n = self._t0, self.interval, self._n

        def due(index: int) -> bool:
            time = t0 + index * interval
            return time < limit or (inclusive and time == limit)

        # First index whose tick is not due; the quotient can round
        # across an integer, so check the estimate and its neighbour.
        first = max(n, math.ceil((limit - t0) / interval))
        if due(first):
            first += 1
        elif first > n and not due(first - 1):
            first -= 1
        skipped = first - n
        self._n = first
        self.env.note_elided(skipped)
        return skipped

    def peek(self, ticks: int) -> float:
        """Timestamp ``ticks`` ticks ahead of the next one (no mutation)."""
        if ticks < 0:
            raise ValueError(f"cannot peek {ticks} ticks back")
        return self._t0 + (self._n + ticks) * self.interval
