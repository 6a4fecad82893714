"""Memory bounds for the state that long runs keep.

The binary log, the load monitor and the buffer pool are touched on
every write, every sampling tick and every page access.  These tests
measure them with ``tracemalloc`` so that state which only needs to be
O(live) cannot quietly become O(run length) again.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.db.buffer_pool import BufferPool
from repro.db.log import BinaryLog
from repro.middleware.cluster import FleetSpec, SlackerCluster
from repro.placement.monitor import LoadMonitor
from repro.resources.units import MB, PAGE_SIZE
from repro.simulation import Environment, Trace


@pytest.fixture
def traced():
    """Run the test body under tracemalloc; yields the current-bytes probe."""
    gc.collect()
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_binlog_costs_at_most_48_bytes_per_record(traced):
    records = 10_000
    rng = random.Random(3)
    before = traced()
    log = BinaryLog()
    for i in range(records):
        log.append(size=rng.randint(64, 512), time=i * 0.001, txn_id=i, tag=i % 7)
    per_record = (traced() - before) / records
    assert log.record_count == records
    assert per_record <= 48, f"{per_record:.1f} B/record"


def test_monitor_memory_is_flat_across_snapshots(traced):
    env = Environment()
    trace = Trace()
    cluster = SlackerCluster.build_fleet(
        env,
        FleetSpec(
            nodes=20, tenants=60, min_tenant_bytes=2 * MB, max_tenant_bytes=4 * MB
        ),
        trace=trace,
    )
    # Latency samples for every tenant over the whole measured span,
    # recorded up front so that only the monitor can grow below.
    rng = random.Random(5)
    for tenant_id in range(60):
        for t in range(0, 1000, 2):
            trace.record(f"tenant-{tenant_id}", float(t), rng.uniform(0.01, 0.2))
    monitor = LoadMonitor(cluster, trace, interval=10.0)

    def snapshot_at(n: int) -> None:
        env.run(until=10.0 * n)
        monitor.snapshot()

    for n in range(1, 11):
        snapshot_at(n)
    gc.collect()
    at_10 = traced()
    for n in range(11, 101):
        snapshot_at(n)
    gc.collect()
    growth = traced() - at_10
    assert monitor.snapshot_count == 100
    assert len(monitor.latest) == 20
    # One snapshot of this fleet is about 15 KB; keeping all 90 extra
    # ones would be over 1 MB.
    assert growth <= 4096, f"monitor grew {growth} B over 90 snapshots"


def test_hit_only_pool_workload_does_not_grow(traced):
    capacity = 2000
    pool = BufferPool(capacity_bytes=capacity * PAGE_SIZE)
    rng = random.Random(11)
    for page in range(capacity):
        pool.access(page, write=page % 3 == 0)
    for _ in range(capacity):
        pool.access(rng.randrange(capacity), write=rng.random() < 0.3)
        pool.flush_page(rng.randrange(capacity))
    gc.collect()
    tracemalloc.reset_peak()
    warm = traced()
    for _ in range(20 * capacity):
        pool.access(rng.randrange(capacity), write=rng.random() < 0.3)
        pool.flush_page(rng.randrange(capacity))
    peak = tracemalloc.get_traced_memory()[1]
    assert pool.stats.misses == capacity  # the loop above was hit-only
    assert peak - warm <= 1024, f"peak rose {peak - warm} B above the warm pool"
