"""Event-kernel ordering and golden experiment trajectories.

These tests once replayed identical schedules through a calendar-queue
kernel and the binary heap and demanded identical results.  The heap is
now the only kernel (see ``docs/PERF.md``), so every comparison is
against literals (the three experiment fingerprints were re-pinned
when periodic ticks moved to the integer grid ``t0 + n * interval``):

* kernel-level ordering on synthetic schedules — heavy time collisions,
  same-time events scheduled while that time is being processed
  ("the walked bucket"), ``run(until=)`` stop events racing timeouts,
  and absolute-time ``timeout_at``;
* the trajectory fingerprints of three real sweep points — a fig5
  throttle point, a chaos fault-injection point and a small fleet drain.

A change that moves any of these orders or trajectories fails here; a
deliberate trajectory change re-baselines the literals in the same
commit and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.config import CASE_STUDY, EVALUATION
from repro.experiments.chaos_sweep import chaos_point
from repro.experiments.common import scaled_config
from repro.experiments.fleet_sweep import fleet_point
from repro.experiments.harness import MigrationSpec
from repro.parallel.tasks import single_tenant_point
from repro.resources.units import mb_per_sec
from repro.simulation import Environment


class TestKernelOrdering:
    """The ``(time, priority, sequence)`` contract on collision-heavy schedules."""

    @staticmethod
    def _random_schedule(seed):
        """Many processes drawing colliding delays from a tiny grid.

        Zero-delay draws land at the current time while it is being
        processed; the coarse grid forces heavy time collisions, so
        FIFO-within-tick is what actually determines the order.
        """
        env = Environment()
        rng = random.Random(seed)
        order = []

        def proc(name, delays):
            for delay in delays:
                yield env.timeout(delay)
                order.append((name, env.now))

        for i in range(20):
            delays = [rng.choice((0.0, 0.5, 0.5, 1.0, 2.5)) for _ in range(30)]
            env.process(proc(f"p{i:02d}", delays))
        env.run()
        return order, env.now, env.processed_events

    #: seed -> (SHA-256 of the event order, final sim time).
    PINNED = {
        1: ("9740bdddd59ad0b070d52f17c75338a006cd897b89e855d8b7b045cdae8d11ef", 40.0),
        7: ("e391a975fef72b0cae0761aa040ebd6fe5766899aedebf470ead10ecf2dca400", 35.0),
        42: ("aa326db86d58ebc983d49e04394141236b43160f91bbdff2f10c0e70d0f4e1e5", 34.0),
    }

    def test_random_collision_schedules_are_bit_identical(self):
        for seed, (digest, end) in self.PINNED.items():
            order, now, processed = self._random_schedule(seed)
            assert hashlib.sha256(repr(order).encode()).hexdigest() == digest, seed
            assert now == end
            assert len(order) == 600
            # 600 timeouts + 20 process starts + 20 process exits.
            assert processed == 640

    def test_same_time_spawns_land_in_walked_bucket_in_fifo_order(self, env):
        order = []

        def child(name):
            yield env.timeout(0.0)
            order.append((name, env.now))

        def parent():
            yield env.timeout(1.0)
            order.append(("parent", env.now))
            for i in range(3):
                env.process(child(f"child{i}"))
            yield env.timeout(0.0)
            order.append(("parent-again", env.now))

        env.process(parent())
        env.run()
        # The children's process-init events are URGENT, but their first
        # `timeout(0.0)` draws a *later* sequence number than the
        # parent's, so the parent resumes first.
        assert order == [
            ("parent", 1.0),
            ("parent-again", 1.0),
            ("child0", 1.0),
            ("child1", 1.0),
            ("child2", 1.0),
        ]

    def test_urgent_stop_event_wins_the_tie_in_both_kernels(self, env):
        fired = []

        def proc():
            yield env.timeout(1.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=1.0)
        assert env.now == 1.0
        assert fired == []  # stop is URGENT: it preempts the 1.0 timeout

    def test_timeout_at_interleaves_identically(self, env):
        order = []

        def absolute(name, when):
            yield env.timeout_at(when)
            order.append((name, env.now))

        def relative(name, delay):
            yield env.timeout(delay)
            order.append((name, env.now))

        env.process(absolute("abs-late", 2.0))
        env.process(relative("rel", 2.0))
        env.process(absolute("abs-early", 1.0))
        env.run()
        assert order == [("abs-early", 1.0), ("abs-late", 2.0), ("rel", 2.0)]


def _point_fingerprint(record) -> str:
    """SHA-256 over a single-tenant point's migration and latency series."""
    migration = record.migration
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                migration.kind,
                migration.duration,
                migration.downtime,
                migration.total_bytes,
                record.window_start,
                record.window_end,
            )
        ).encode()
    )
    for tenant in record.tenants:
        digest.update(
            repr(
                (
                    tenant.tenant_id,
                    tenant.completed,
                    tuple(tenant.latency.times),
                    tuple(tenant.latency.values),
                )
            ).encode()
        )
    return digest.hexdigest()


class TestABExperimentReplay:
    def test_fig5_throttle_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        record = single_tenant_point(
            cfg, MigrationSpec.fixed(mb_per_sec(8)), warmup=2.0, cooldown=1.0
        )
        assert record.mean_latency > 0
        assert _point_fingerprint(record) == (
            "9d3e94a78aa6e9f6ba8958350448ccda4e04e65c2fca4966d15bfb67d32acd30"
        )

    def test_chaos_fault_injection_point(self):
        cfg = scaled_config(CASE_STUDY, 0.06, None)
        record = chaos_point(
            cfg,
            MigrationSpec.fixed(mb_per_sec(8)),
            label="drop-20",
            messages={"drop_prob": 0.20, "dup_prob": 0.05},
            warmup=2.0,
            run_limit=120.0,
        )
        assert record.fingerprint == (
            "a42b4451e09203c507320a6398ed7cf7ec113e2e9f7ee16532516a5634622e00"
        )

    def test_fleet_drain_point(self):
        cfg = scaled_config(EVALUATION, 0.125, 11)
        record = fleet_point(
            cfg,
            MigrationSpec.dynamic(1.0),
            label="drain",
            scenario="drain",
            nodes=4,
            tenants=12,
            warmup=10.0,
            run_limit=400.0,
        )
        assert record.ok
        assert record.fingerprint == (
            "22d2a5e44fecd172da312345590d14d4e5eab8de38859d61e5a48a50fc1c8bd0"
        )
