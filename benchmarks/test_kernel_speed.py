"""Kernel throughput and parallel-sweep speedup benchmarks.

Guards the event-loop fast path (``__slots__``, bound-method caching,
inlined run loop) and the ``SweepRunner`` speedup claim.  Thresholds
are deliberately loose — they catch order-of-magnitude regressions,
not scheduler jitter.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once
from repro.experiments import fig5_throttle_sweep
from repro.simulation.core import Environment


def _pump(env: Environment, count: int):
    timeout = env.timeout
    for _ in range(count):
        yield timeout(1.0)


def timeout_chains(total_events: int = 200_000, processes: int = 4) -> float:
    """Events/sec of ``processes`` interleaved timeout chains."""
    env = Environment()
    for _ in range(processes):
        env.process(_pump(env, total_events // processes))
    started = time.perf_counter()  # slackerlint: disable=SLK001
    env.run()
    seconds = time.perf_counter() - started  # slackerlint: disable=SLK001
    return env.processed_events / seconds


def test_kernel_events_per_sec(benchmark):
    events_per_sec = run_once(benchmark, timeout_chains)
    print(f"\nkernel throughput: {events_per_sec:,.0f} events/sec")
    # The seed kernel sustained ~500k events/sec on the CI class of
    # machine; the fast path pushes it higher.  100k is the "something
    # broke badly" floor, safe under heavy CI contention.
    assert events_per_sec > 100_000


def test_kernel_timeout_allocation(benchmark):
    """The lean Timeout path: many short schedules, one at a time."""

    def churn():
        env = Environment()

        def tick():
            for _ in range(50_000):
                yield env.timeout(0.001)

        env.process(tick())
        env.run()
        return env.now

    now = run_once(benchmark, churn)
    assert now > 0


def test_parallel_sweep_speedup(benchmark):
    """jobs=4 beats serial by >= 1.8x on the 4-point Figure 5 sweep.

    Scale 0.5 keeps each point heavy enough (seconds, not
    milliseconds) that worker startup cannot dominate.
    """
    if (os.cpu_count() or 1) < 4:
        import pytest

        pytest.skip("needs >= 4 cores for a meaningful speedup claim")

    def timed_pair():
        t0 = time.perf_counter()  # slackerlint: disable=SLK001
        serial = fig5_throttle_sweep.run(scale=0.5, jobs=1, cache=None)
        t1 = time.perf_counter()  # slackerlint: disable=SLK001
        parallel = fig5_throttle_sweep.run(scale=0.5, jobs=4, cache=None)
        t2 = time.perf_counter()  # slackerlint: disable=SLK001
        return serial, parallel, t1 - t0, t2 - t1

    serial, parallel, serial_s, parallel_s = run_once(benchmark, timed_pair)

    # Bit-identical results, regardless of timing.
    for rate in serial.outcomes:
        a = serial.outcomes[rate].tenants[0].latency
        b = parallel.outcomes[rate].tenants[0].latency
        assert [tuple(p) for p in a] == [tuple(p) for p in b]

    speedup = serial_s / parallel_s
    print(
        f"\nsweep: serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 1.8
