"""Coalesced periodic timers: the integer tick grid and its users.

Every PeriodicTicker port (`middleware/node.py` heartbeats and failure
detectors, `migration/throttle.py` refills, `migration/controller.py`,
`placement/monitor.py`, `obs/runtime.py`) rests on two claims:

* **grid exactness** — tick ``n`` of a ticker anchored at ``t0`` fires
  at exactly ``t0 + n * interval``, and the O(1) ``skip_until`` /
  ``peek`` agree with a brute-force scan of that grid to the bit;
* **fewer events** — skipped no-op ticks never reach the kernel, and
  are accounted in ``env.elided_events`` so ``processed + elided``
  reconstructs the one-event-per-tick cost.

The throttle is checked against the analytic token-bucket schedule on
the same grid, computed here in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.migration.throttle import DEFAULT_BUCKET_BYTES, DEFAULT_TICK, Throttle
from repro.resources.units import MB
from repro.simulation import Environment, PeriodicTicker


def _anchored_ticker(env, t0: float, interval: float) -> PeriodicTicker:
    """A ticker constructed at simulated time ``t0``."""
    env.run(until=t0)
    return PeriodicTicker(env, interval)


def _brute_force_skip(t0, interval, n, limit, inclusive) -> int:
    """Count grid ticks from index ``n`` that fall before ``limit``."""
    skipped = 0
    while True:
        time = t0 + (n + skipped) * interval
        if time < limit or (inclusive and time == limit):
            skipped += 1
        else:
            return skipped


class TestPeriodicTicker:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            PeriodicTicker(env, 0)
        with pytest.raises(ValueError):
            PeriodicTicker(env, -0.5)
        ticker = PeriodicTicker(env, 0.05)
        with pytest.raises(ValueError):
            ticker.peek(-1)
        with pytest.raises(ValueError):
            ticker.skip_until(float("inf"))
        with pytest.raises(ValueError):
            ticker.skip_until(float("nan"))
        assert ticker.next_time == 0.05  # failed calls left the clock alone

    def test_tick_times_match_eager_loop_bitwise(self, env):
        """Tick n fires at exactly ``t0 + n * interval``, never at a
        chained float sum, whatever the anchor."""
        interval = 0.05  # not exactly representable
        ticker = _anchored_ticker(env, 3.7, interval)
        t0 = env.now
        fired = []

        def loop():
            for _ in range(2000):
                yield ticker.tick()
                fired.append(env.now)

        env.process(loop())
        env.run()
        assert fired == [t0 + n * interval for n in range(1, 2001)]
        assert ticker.next_time == t0 + 2001 * interval

    def test_skip_equals_repeated_ticks(self, env):
        a = PeriodicTicker(env, 0.05)
        b = PeriodicTicker(env, 0.05)
        for _ in range(777):
            a.tick()
        assert b.skip_until(b.peek(776), inclusive=True) == 777
        assert a.next_time == b.next_time

    def test_skip_until_equals_repeated_skip(self):
        """``skip_until`` agrees with a brute-force scan of the grid,
        including limits one ulp either side of a tick."""
        for t0 in (0.0, 0.3, 12.345):
            for interval in (0.05, 0.1, 0.3, 1.0 / 3.0, 0.5):
                env = Environment()
                env.run(until=t0)
                limits = [t0 - 1.0, t0, t0 + 0.5 * interval, t0 + 40.25 * interval]
                for k in (1, 2, 3, 7, 20, 99, 100, 101, 1000):
                    tick = t0 + k * interval
                    limits += [math.nextafter(tick, -math.inf), tick, math.nextafter(tick, math.inf)]
                for limit in limits:
                    for inclusive in (False, True):
                        ticker = PeriodicTicker(env, interval)
                        expected = _brute_force_skip(t0, interval, 1, limit, inclusive)
                        case = (t0, interval, limit, inclusive)
                        assert ticker.skip_until(limit, inclusive) == expected, case
                        assert ticker.next_time == t0 + (1 + expected) * interval, case
        # inclusive consumes a tick landing exactly on the limit
        env = Environment()
        c = PeriodicTicker(env, 0.5)
        assert c.skip_until(1.0, inclusive=True) == 2
        assert c.skip_until(1.0, inclusive=True) == 0

    def test_peek_and_ticks_until_walk_the_same_timeline(self, env):
        ticker = _anchored_ticker(env, 1.25, 0.05)
        t0 = env.now
        ticker.tick()
        ticker.tick()  # next tick index n = 3
        assert ticker.peek(0) == ticker.next_time == t0 + 3 * 0.05
        for k in (1, 9, 250, 10**6):
            assert ticker.peek(k) == t0 + (3 + k) * 0.05
        # skip_until on a peeked time stops exactly on that tick
        assert ticker.skip_until(ticker.peek(9)) == 9
        assert ticker.skip_until(ticker.peek(0), inclusive=True) == 1
        assert ticker.next_time == t0 + 13 * 0.05

    def test_skips_are_accounted_as_elided_events(self, env):
        ticker = PeriodicTicker(env, 0.05)
        assert env.elided_events == 0
        ticker.skip_until(ticker.peek(10))
        assert env.elided_events == 10
        ticker.skip_until(ticker.peek(4))
        assert env.elided_events == 14
        ticker.skip_until(0.0)  # nothing due: nothing elided
        assert env.elided_events == 14
        ticker.tick()  # a scheduled tick is a real event, not elided
        assert env.elided_events == 14


_CHUNKS = (1 * MB, 4 * MB, 4 * MB, 0.5 * MB, 6 * MB, 2 * MB)
#: (time, rate) of every set_rate the scenario's controller makes.
_RATE_CHANGES = ((0.4, 2 * MB), (1.0, 0.0), (2.0, 25 * MB))
_LEVEL_PROBE_AT = 5.0


def _throttle_scenario():
    """One migration-shaped throttle life: acquire bursts, rate changes
    mid-stream, a pause, a resume, and a long idle tail."""
    env = Environment()
    throttle = Throttle(env, rate=10 * MB)
    grants = []

    def consumer():
        for chunk in _CHUNKS:
            yield from throttle.acquire(chunk)
            grants.append((env.now, chunk))

    def controller():
        yield env.timeout(0.4)
        throttle.set_rate(2 * MB)   # PID clamps down
        yield env.timeout(0.6)
        throttle.set_rate(0.0)      # paused entirely (Section 5.4)
        yield env.timeout(1.0)
        throttle.set_rate(25 * MB)  # recovery: wide open
        yield env.timeout(3.0)
        levels.append((env.now, throttle.level))

    levels = []
    done = env.process(consumer())
    env.process(controller())
    env.run(until=done)
    # idle tail: nothing acquires, rate stays set — the coalesced
    # throttle must cost zero events here
    env.run(until=env.now + 30.0)
    throttle.stop()
    return {
        "grants": grants,
        "levels": levels,
        "end": env.now,
        "stats": (
            throttle.stats.bytes_granted,
            throttle.stats.grants,
            throttle.stats.rate_changes,
            throttle.stats.rate_seconds,
        ),
        "average_rate": throttle.average_rate(),
        "processed": env.processed_events,
        "elided": env.elided_events,
    }


def _analytic_schedule():
    """Grant times and the probed level of the scenario's token bucket,
    in exact arithmetic: tick n at ``n * tick`` deposits ``rate * tick``
    at the rate in force then (a change at exactly a tick's time
    applies to it), clamped to the bucket depth; requests larger than
    the bucket are served in bucket-sized pieces, FIFO."""
    tick = DEFAULT_TICK
    capacity = Fraction(DEFAULT_BUCKET_BYTES)

    def deposit(n):
        rate = 10 * MB
        for when, new_rate in _RATE_CHANGES:
            if when <= n * tick:
                rate = new_rate
        return Fraction(rate * tick)

    level, n, grants = Fraction(0), 0, []
    for chunk in _CHUNKS:
        remaining = Fraction(chunk)
        while remaining > 0:
            piece = min(remaining, capacity)
            while level < piece:
                n += 1
                level = min(capacity, level + deposit(n))
            level -= piece
            remaining -= piece
        grants.append((n * tick, chunk))
    while (n + 1) * tick <= _LEVEL_PROBE_AT:
        n += 1
        level = min(capacity, level + deposit(n))
    return grants, [(_LEVEL_PROBE_AT, float(level))]


class TestThrottleEagerVsCoalesced:
    def test_trajectories_are_bit_identical(self):
        """Grant times and levels equal the analytic token-bucket
        schedule on the integer tick grid."""
        lazy = _throttle_scenario()
        grants, levels = _analytic_schedule()
        assert lazy["grants"] == grants
        assert lazy["levels"] == levels
        assert lazy["stats"][:3] == (int(sum(_CHUNKS)), len(_CHUNKS), len(_RATE_CHANGES))
        assert lazy["end"] == grants[-1][0] + 30.0

    def test_coalesced_path_processes_fewer_events(self):
        """Events scale with grants and rate changes, not with the
        ~700 ticks the scenario spans."""
        lazy = _throttle_scenario()
        actions = len(_CHUNKS) + len(_RATE_CHANGES)
        # A grant costs its get event and one service wake (plus the
        # service process's start and exit); a rate change costs the
        # setter's own timeout and one service interrupt.  The constant
        # covers the two process starts and the run(until=) stops.
        assert lazy["processed"] <= 4 * actions + 10
        ticks = round(lazy["end"] / DEFAULT_TICK)
        assert lazy["processed"] * 10 < ticks
        # The elided ticks account for (at least) every tick that no
        # event served.
        assert lazy["processed"] + lazy["elided"] >= ticks

    def test_paused_and_idle_throttle_costs_zero_events(self):
        env = Environment()
        throttle = Throttle(env, rate=0.0)
        env.run(until=120.0)
        before = env.processed_events
        env.run(until=240.0)
        # Only the run(until=) stop events themselves: a paused
        # coalesced throttle schedules nothing at all.
        assert env.processed_events - before <= 1
        assert throttle.level == 0.0
        # Idle at a positive rate: the bucket fills on read, no events.
        throttle.set_rate(10 * MB)
        env.run(until=360.0)
        assert env.processed_events - before <= 2
        assert throttle.level == DEFAULT_BUCKET_BYTES


class TestHeartbeatGridStaysOnEagerTimeline:
    """The lazy heartbeat/detector loops in middleware/node.py share
    PeriodicTicker's clock, so their observable beat times must sit on
    the eager chained-addition grid."""

    def test_detector_declares_death_on_the_eager_tick(self):
        from repro.core.config import CASE_STUDY
        from repro.experiments.common import scaled_config
        from repro.experiments.harness import _build_cluster
        from repro.simulation import RandomStreams

        config = scaled_config(CASE_STUDY, 0.06, None)
        cluster = _build_cluster(config, RandomStreams(config.seed))
        env = cluster.env
        cluster.start_heartbeats(0.5)
        cluster.start_failure_detectors(0.5, miss_threshold=3.0)
        source = cluster.node("source")
        target = cluster.node("target")
        declared_at = []
        original = target._cancel_migrations_to

        def recording_cancel(peer):
            declared_at.append(env.now)
            original(peer)

        target._cancel_migrations_to = recording_cancel
        env.run(until=20.0)
        assert "source" not in target.dead_peers
        source.crash()
        env.run(until=40.0)
        assert "source" in target.dead_peers
        assert target.stats.peers_declared_dead == 1
        # Death can only be declared on a detector tick, and every
        # detector tick lies on the chained 0.5s grid the eager loop
        # would have walked.
        grid = []
        time = 0.0
        while time < 40.0:
            time += 0.5
            grid.append(time)
        assert declared_at == [t for t in declared_at if t in grid]
        assert len(declared_at) == 1
