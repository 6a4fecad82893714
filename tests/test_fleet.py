"""Fleet orchestration: budget ledger, waves, drain, K=1 serialization, chaos.

The contract tests of the wave stack live here:

* **budget invariant** — no node's inbound + outbound reservation
  shares ever exceed its slack capacity, at any simulated time, across
  a whole wave-scheduled drain (checked against the ledger's full
  audit history, not just the final state);
* **K=1 serialization** — with ``max_concurrent=1`` the ledger never
  holds more than one live reservation, so at most one migration runs
  at a time even when per-node budgets would admit two;
* **drain under node crash** — a hardened fleet drains to completion
  while a scheduled fault crashes a migration target mid-wave, aborted
  streams are recorded as ``outcome="aborted"``, and the budget stays
  clean throughout.
"""

import pytest

from repro.control import budget_setpoint
from repro.core import EVALUATION, Slacker
from repro.experiments import scaled_config
from repro.experiments import fleet_sweep
from repro.experiments.fleet_sweep import FleetRecord, fleet_point
from repro.experiments.harness import MigrationSpec
from repro.faults import FaultInjector, FaultPlan, ScheduledFault
from repro.middleware.admin import AdminConsole
from repro.middleware.cluster import FleetSpec, SlackerCluster
from repro.placement import (
    GreedyReliefChooser,
    LatencyHotspotDetector,
    LoadMonitor,
    MigrationProposal,
    PlacementManager,
    SlackBudgetLedger,
    WavePlanner,
)
from repro.resources.units import MB
from repro.simulation import Environment, RandomStreams, Trace

TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)

_EPS = 1e-9


def assert_budget_history_clean(ledger, settled=True):
    """The audit trail proves the invariant at *every* sim time.

    Usage only changes at reserve/release events, and every event
    records the node's usage just after it applied — so "never
    oversubscribed at any simulated time" reduces to: every recorded
    ``used_after`` is within ``[0, capacity]``.  ``settled`` adds the
    leak check: each node's final usage is back to zero.
    """
    assert ledger.oversubscriptions() == []
    final = {}
    for event in ledger.history:
        assert -_EPS <= event.used_after <= ledger.capacity + _EPS, (
            f"node {event.node} at t={event.time}: "
            f"used {event.used_after} vs capacity {ledger.capacity}"
        )
        final[event.node] = event.used_after
    if settled:
        for node, used in final.items():
            assert used <= _EPS, f"node {node} leaked {used} of budget"
        assert ledger.active_streams() == 0


class TestSlackBudgetLedger:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlackBudgetLedger(capacity=0)
        ledger = SlackBudgetLedger()
        with pytest.raises(ValueError):
            ledger.reserve(1, "a", "a", share=0.5)
        with pytest.raises(ValueError):
            ledger.reserve(1, "a", "b", share=0.0)

    def test_reserve_charges_both_endpoints(self):
        ledger = SlackBudgetLedger()
        ledger.reserve(1, "a", "b", share=0.5)
        assert ledger.used("a") == pytest.approx(0.5)
        assert ledger.used("b") == pytest.approx(0.5)
        assert ledger.available("a") == pytest.approx(0.5)

    def test_duplicate_tenant_rejected(self):
        ledger = SlackBudgetLedger()
        ledger.reserve(1, "a", "b", share=0.25)
        with pytest.raises(ValueError):
            ledger.reserve(1, "b", "c", share=0.25)

    def test_oversubscription_rejected(self):
        ledger = SlackBudgetLedger()
        ledger.reserve(1, "a", "b", share=0.6)
        assert not ledger.can_admit("a", "c", 0.6)
        with pytest.raises(ValueError):
            ledger.reserve(2, "a", "c", share=0.6)
        # The other endpoints still have room.
        assert ledger.can_admit("c", "d", 0.6)

    def test_release_is_idempotent(self):
        ledger = SlackBudgetLedger()
        reservation = ledger.reserve(1, "a", "b", share=0.5, time=1.0)
        ledger.release(reservation, time=2.0)
        ledger.release(reservation, time=3.0)
        assert ledger.used("a") == 0.0
        assert ledger.active_streams() == 0
        # One reserve + one release pair per endpoint, no double release.
        releases = [e for e in ledger.history if e.action == "release"]
        assert len(releases) == 2

    def test_peak_tracks_high_water_mark(self):
        ledger = SlackBudgetLedger()
        r1 = ledger.reserve(1, "a", "b", share=0.5)
        ledger.reserve(2, "a", "c", share=0.5)
        ledger.release(r1)
        assert ledger.peak_used == pytest.approx(1.0)
        assert_budget_history_clean(ledger, settled=False)


class TestBudgetSetpoint:
    def test_full_share_is_bitwise_identical(self):
        base = 1.2345678901234567
        assert budget_setpoint(base, 1.0) is base

    def test_share_scales_headroom(self):
        assert budget_setpoint(1.0, 0.5) == pytest.approx(0.5)
        assert budget_setpoint(2.0, 0.5, baseline=1.0) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_setpoint(0.0, 0.5)
        with pytest.raises(ValueError):
            budget_setpoint(1.0, 0.0)
        with pytest.raises(ValueError):
            budget_setpoint(1.0, 0.5, baseline=1.0)


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(nodes=0, tenants=1)
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, tenants=-1)
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, tenants=1, min_tenant_bytes=2, max_tenant_bytes=1)
        with pytest.raises(ValueError):
            FleetSpec(nodes=1, tenants=1, placement="alphabetical")

    def test_node_names_zero_padded(self):
        names = FleetSpec(nodes=100, tenants=0).node_names()
        assert names[0] == "node-00"
        assert names[99] == "node-99"
        assert len(set(names)) == 100

    def test_build_fleet_is_deterministic(self):
        spec = FleetSpec(nodes=5, tenants=23)

        def census():
            env = Environment()
            cluster = SlackerCluster.build_fleet(
                env, spec, streams=RandomStreams(42), trace=Trace()
            )
            return {
                name: [
                    (t.tenant_id, t.data_bytes)
                    for t in sorted(
                        node.registry, key=lambda t: t.tenant_id
                    )
                ]
                for name, node in cluster.nodes.items()
            }

        first, second = census(), census()
        assert first == second
        assert sum(len(v) for v in first.values()) == 23

    def test_round_robin_and_size_bounds(self):
        spec = FleetSpec(nodes=4, tenants=16)
        env = Environment()
        cluster = SlackerCluster.build_fleet(
            env, spec, streams=RandomStreams(7), trace=Trace()
        )
        names = spec.node_names()
        sizes = set()
        for tenant_id in range(16):
            assert cluster.locate(tenant_id) == names[tenant_id % 4]
            node = cluster.node(names[tenant_id % 4])
            tenant = node.registry.get(tenant_id)
            assert spec.min_tenant_bytes <= tenant.data_bytes
            assert tenant.data_bytes <= spec.max_tenant_bytes
            sizes.add(tenant.data_bytes)
        assert len(sizes) > 4  # heterogeneous, not one size stamped out
        assert cluster.fleet_spec is spec


class TestWavePlanner:
    def make_loads(self, slacker):
        monitor = LoadMonitor(slacker.cluster, slacker.trace, interval=5.0)
        slacker.advance(10.0)
        return monitor.snapshot()

    def test_drain_plan_covers_every_tenant_once(self):
        slacker = Slacker(TINY, nodes=["drainme", "a", "b"])
        for tid in range(6):
            slacker.add_tenant(tid, node="drainme")
        planner = WavePlanner(
            LatencyHotspotDetector(latency_threshold=1.0), GreedyReliefChooser()
        )
        loads = self.make_loads(slacker)
        wave = planner.plan_drain("drainme", loads)
        assert sorted(p.tenant_id for p in wave) == list(range(6))
        assert all(p.source == "drainme" for p in wave)
        assert all(p.target in ("a", "b") for p in wave)
        # Balanced spread: 3 tenants to each target.
        targets = [p.target for p in wave]
        assert targets.count("a") == 3 and targets.count("b") == 3

    def test_drain_plan_excludes_targets(self):
        slacker = Slacker(TINY, nodes=["drainme", "a", "b"])
        slacker.add_tenant(1, node="drainme")
        planner = WavePlanner(
            LatencyHotspotDetector(latency_threshold=1.0), GreedyReliefChooser()
        )
        loads = self.make_loads(slacker)
        wave = planner.plan_drain("drainme", loads, excluded_targets=("a",))
        assert [p.target for p in wave] == ["b"]

    def test_wave_claims_nodes_and_tenants_once(self):
        planner = WavePlanner(
            LatencyHotspotDetector(latency_threshold=1.0), GreedyReliefChooser()
        )
        # Synthetic proposals via plan_drain cover the claim logic;
        # here just assert busy tenants are never re-proposed.
        slacker = Slacker(TINY, nodes=["drainme", "a"])
        slacker.add_tenant(1, node="drainme")
        slacker.add_tenant(2, node="drainme")
        loads = self.make_loads(slacker)
        wave = planner.plan_drain("drainme", loads, busy_tenants=(1,))
        assert [p.tenant_id for p in wave] == [2]


class TestWaveDrain:
    def drained_cluster(self, tenants=6, max_concurrent=4, streams_per_node=2):
        slacker = Slacker(TINY, nodes=["old", "a", "b"])
        for tid in range(tenants):
            slacker.add_tenant(tid, node="old")
        manager = PlacementManager(
            slacker.cluster,
            slacker.trace,
            setpoint=1.0,
            interval=5.0,
            cooldown=10.0,
            max_concurrent=max_concurrent,
            max_streams_per_node=streams_per_node,
        )
        slacker.advance(10.0)
        proc = slacker.env.process(manager.drain("old"))
        report = slacker.env.run(until=proc)
        return slacker, manager, report

    def test_drain_empties_the_node(self):
        slacker, manager, report = self.drained_cluster()
        assert report.drained
        assert report.node == "old"
        assert report.migrations == 6
        assert report.remaining == 0
        assert len(slacker.cluster.node("old").registry) == 0
        assert slacker.cluster.total_tenants() == 6

    def test_budget_never_oversubscribed_during_waves(self):
        """The acceptance-criteria invariant, against the full history."""
        slacker, manager, report = self.drained_cluster(
            tenants=8, max_concurrent=8, streams_per_node=2
        )
        assert report.drained
        assert_budget_history_clean(manager.ledger)
        # The drain really did run concurrent streams (else this test
        # proves nothing): some wave admitted more than one migration.
        assert manager.ledger.peak_used > manager.executor.share + _EPS

    def test_wave_respects_streams_per_node_cap(self):
        slacker, manager, report = self.drained_cluster(
            tenants=6, max_concurrent=6, streams_per_node=2
        )
        # Source-side cap: never more than 2 concurrent outbound
        # streams, so peak usage is exactly capacity, never beyond.
        assert manager.ledger.peak_used == pytest.approx(
            manager.ledger.capacity
        )

    def test_unknown_node_raises(self):
        slacker = Slacker(TINY, nodes=["a"])
        manager = PlacementManager(
            slacker.cluster, slacker.trace, setpoint=1.0
        )
        with pytest.raises(KeyError):
            next(manager.drain("nope"))


class TestAbortOutcome:
    def test_aborted_migration_records_outcome_and_cooldown(self):
        """Aborts are decisions, not holes.

        Crashing the source mid-flight aborts the in-flight migration;
        the executor must record ``outcome="aborted"``, count it, rest
        both endpoints for the cooldown, and release the budget.
        """
        slacker = Slacker(TINY, nodes=["src", "dst"])
        slacker.add_tenant(1, node="src")
        manager = PlacementManager(
            slacker.cluster, slacker.trace, setpoint=1.0, cooldown=30.0
        )
        executor = manager.executor
        env = slacker.env
        proposal = MigrationProposal(
            tenant_id=1, source="src", target="dst", reason="test abort"
        )
        executor.launch_wave([proposal])
        slacker.advance(0.5)  # mid-stream
        slacker.cluster.node("src").crash()
        slacker.advance(5.0)

        assert manager.stats.aborted == 1
        assert manager.stats.migrations == 0
        decision = manager.stats.decisions[-1]
        assert decision.outcome == "aborted"
        assert not decision.executed
        # Cooldown applied to both endpoints even though the migration
        # failed, and lifted once it has elapsed.
        assert {"src", "dst"} <= executor.blocked_nodes(env.now)
        slacker.advance(executor.cooldown + 10.0)
        assert executor.blocked_nodes(env.now) == set()
        assert_budget_history_clean(manager.ledger)


def peak_live_reservations(ledger):
    """Most reservations the audit history ever shows live at once."""
    live, peak = set(), 0
    for event in ledger.history:
        if event.action == "reserve":
            live.add(event.tenant_id)
        else:
            live.discard(event.tenant_id)
        peak = max(peak, len(live))
    return peak


class TestK1Serialization:
    """``max_concurrent=1`` is a wave of one: never two streams at once."""

    def drain(self, max_concurrent):
        slacker = Slacker(TINY, nodes=["old", "a", "b"])
        for tid in range(4):
            slacker.add_tenant(tid, node="old")
        manager = PlacementManager(
            slacker.cluster,
            slacker.trace,
            setpoint=1.0,
            interval=5.0,
            max_concurrent=max_concurrent,
            max_streams_per_node=2,
        )
        slacker.advance(10.0)
        report = slacker.env.run(
            until=slacker.env.process(manager.drain("old"))
        )
        assert report.drained
        assert_budget_history_clean(manager.ledger)
        return manager

    def test_one_live_reservation_at_k1(self):
        assert peak_live_reservations(self.drain(1).ledger) == 1
        # The budgets admit two streams, so the cap is what held it.
        assert peak_live_reservations(self.drain(2).ledger) == 2


class TestDrainUnderCrash:
    """Chaos: a migration target crashes mid-drain; the fleet recovers."""

    def record(self):
        return fleet_point(
            scaled_config(EVALUATION, 0.125, 7),
            MigrationSpec.dynamic(1.0),
            label="crash-drain",
            scenario="drain",
            nodes=4,
            tenants=8,
            max_concurrent=4,
            max_streams_per_node=2,
            warmup=10.0,
            run_limit=500.0,
            scheduled=(
                {
                    "at": 14.0,
                    "kind": "crash_node",
                    "node": "node-1",
                    "duration": 120.0,
                },
            ),
        )

    def test_drain_survives_target_crash(self):
        record = self.record()
        assert record.violations == ()
        assert record.remaining == 0  # the drain still finished
        assert record.time_to_drain is not None
        # Round-robin places 2 of the 8 tenants on node-0; both must
        # land elsewhere, and the stream cut off by the crash shows up
        # as an abort that a later wave re-plans.
        assert record.migrations == 2
        assert record.aborted >= 1
        # Determinism holds under faults too.
        assert self.record().fingerprint == record.fingerprint


class TestFleetPoint:
    CONFIG = scaled_config(EVALUATION, 0.125, 11)
    SPEC = MigrationSpec.dynamic(1.0)

    def point(self, **kwargs):
        base = dict(
            scenario="drain", nodes=4, tenants=12,
            warmup=10.0, run_limit=400.0,
        )
        base.update(kwargs)
        return fleet_point(self.CONFIG, self.SPEC, **base)

    def test_drain_point_is_healthy_and_stable(self):
        record = self.point()
        assert isinstance(record, FleetRecord)
        assert record.ok
        assert record.time_to_drain is not None
        assert record.migrations_per_hour > 0
        assert record.budget_peak_used <= 1.0 + _EPS
        assert self.point().fingerprint == record.fingerprint

    def test_observation_does_not_change_the_trajectory(self):
        blind = self.point()
        watched = self.point(observe=True)
        assert watched.report is not None
        assert watched.fingerprint == blind.fingerprint
        gauges = watched.report.metrics["gauges"]
        assert gauges["fleet.p99_latency_seconds"] == pytest.approx(
            watched.p99_latency
        )
        assert "fleet.time_to_drain_seconds:node-0" in gauges


class TestFleetSweepCli:
    ARGS = ["--nodes", "4", "--tenants", "8", "--run-limit", "60"]

    def test_check_run_writes_nothing_unasked(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert fleet_sweep.main([*self.ARGS, "--check"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_report_out_writes_one_report_per_scenario(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert fleet_sweep.main([*self.ARGS, "--report-out", "obs"]) == 0
        assert sorted(p.name for p in (tmp_path / "obs").iterdir()) == [
            "drain.report.json",
            "rebalance.report.json",
        ]


class TestAdminDrain:
    def test_console_drain_verb(self):
        slacker = Slacker(TINY, nodes=["old", "new"])
        for tid in (1, 2):
            slacker.add_tenant(tid, node="old")
        console = AdminConsole(slacker.cluster)
        slacker.advance(5.0)
        out = console.execute("drain old setpoint 1000ms")
        assert out.startswith("drained old: 2 migrations")
        assert len(slacker.cluster.node("old").registry) == 0
        assert console.manager is not None
        assert_budget_history_clean(console.manager.ledger)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
