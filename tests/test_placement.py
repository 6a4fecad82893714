"""Tests for the placement subsystem (monitor, policies, manager)."""

import math

import pytest

from repro.core import EVALUATION, Slacker
from repro.experiments import scaled_config
from repro.placement import (
    ConsolidationChooser,
    GreedyReliefChooser,
    LatencyHotspotDetector,
    LoadMonitor,
    NodeLoad,
    PlacementManager,
    TenantLoad,
    UtilizationHotspotDetector,
)
from repro.resources.units import MB

TINY = scaled_config(EVALUATION, 32 * MB / EVALUATION.tenant.data_bytes)


def node_load(name, util, tenants=(), time=0.0):
    return NodeLoad(node=name, time=time, disk_utilization=util,
                    tenants=tuple(tenants))


def tenant_load(tid, latency, throughput=10, data=64 * MB):
    return TenantLoad(tenant_id=tid, mean_latency=latency,
                      throughput=throughput, data_bytes=data)


class TestLoadMonitor:
    def make(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        monitor = LoadMonitor(slacker.cluster, slacker.trace, interval=5.0)
        return slacker, monitor

    def test_interval_validation(self):
        slacker = Slacker(TINY, nodes=["a"])
        with pytest.raises(ValueError):
            LoadMonitor(slacker.cluster, slacker.trace, interval=0)

    def test_snapshot_covers_all_nodes(self):
        slacker, monitor = self.make()
        slacker.advance(5.0)
        loads = monitor.snapshot()
        assert set(loads) == {"a", "b"}
        assert loads["a"].tenant_count == 1
        assert loads["b"].tenant_count == 0

    def test_utilization_differenced_per_interval(self):
        slacker, monitor = self.make()
        slacker.advance(5.0)
        first = monitor.snapshot()
        slacker.advance(5.0)
        second = monitor.snapshot()
        assert 0.0 <= first["a"].disk_utilization <= 1.0
        assert 0.0 <= second["a"].disk_utilization <= 1.0
        assert second["a"].disk_utilization > 0  # workload is running

    def test_tenant_latency_sampled(self):
        slacker, monitor = self.make()
        slacker.advance(10.0)
        loads = monitor.snapshot()
        tenant = loads["a"].tenants[0]
        assert tenant.tenant_id == 1
        assert tenant.throughput > 0
        assert tenant.mean_latency > 0

    def test_run_appends_history(self):
        slacker, monitor = self.make()
        slacker.env.process(monitor.run())
        slacker.advance(16.0)
        assert monitor.snapshot_count == 3
        assert {load.time for load in monitor.latest.values()} == {15.0}
        assert set(monitor.latest) == {"a", "b"}

    def test_hottest_tenant(self):
        load = node_load("a", 0.5, [
            tenant_load(1, 0.1), tenant_load(2, 0.9), tenant_load(3, 0.4),
        ])
        assert load.hottest_tenant().tenant_id == 2

    def test_hottest_tenant_ignores_idle(self):
        load = node_load("a", 0.5, [
            tenant_load(1, float("nan"), throughput=0), tenant_load(2, 0.2),
        ])
        assert load.hottest_tenant().tenant_id == 2

    def test_hottest_tenant_none_when_empty(self):
        assert node_load("a", 0.5).hottest_tenant() is None


class TestIdleTenantFiltering:
    """Idle tenants carry a NaN latency; every consumer must filter on
    the explicit predicate, never on NaN comparisons (which are always
    False and silently corrupt max/sort)."""

    def test_is_idle_predicate(self):
        assert tenant_load(1, float("nan"), throughput=0).is_idle
        assert not tenant_load(1, 0.5, throughput=3).is_idle

    def test_active_tenants_excludes_idle(self):
        load = node_load("a", 0.5, [
            tenant_load(1, 0.5),
            tenant_load(2, float("nan"), throughput=0),
            tenant_load(3, 1.5),
        ])
        assert [t.tenant_id for t in load.active_tenants()] == [1, 3]

    def test_hottest_tenant_ignores_idle(self):
        # NaN poisons max(): if the idle tenant were included, it could
        # shadow the genuinely hottest one depending on ordering.
        load = node_load("a", 0.5, [
            tenant_load(1, float("nan"), throughput=0),
            tenant_load(2, 2.0),
        ])
        assert load.hottest_tenant().tenant_id == 2

    def test_all_idle_node_has_no_hottest(self):
        load = node_load("a", 0.5, [
            tenant_load(1, float("nan"), throughput=0),
            tenant_load(2, float("nan"), throughput=0),
        ])
        assert load.hottest_tenant() is None
        assert load.active_tenants() == ()

    def test_detector_never_fires_on_idle_node(self):
        detector = LatencyHotspotDetector(latency_threshold=0.5, patience=1)
        idle = {"a": node_load("a", 0.99, [
            tenant_load(1, float("nan"), throughput=0),
            tenant_load(2, float("nan"), throughput=0),
        ])}
        assert detector.hot_nodes(idle) == []

    def test_chooser_skips_idle_never_proposes_nan_victim(self):
        chooser = GreedyReliefChooser()
        loads = {
            "hot": node_load("hot", 0.95, [
                tenant_load(1, float("nan"), throughput=0),
                tenant_load(2, 3.0),
            ]),
            "cool": node_load("cool", 0.1),
        }
        proposal = chooser.propose("hot", loads)
        assert proposal.tenant_id == 2
        assert not math.isnan(float(proposal.reason.split(" ms")[0].split()[-1]))


class TestLatencyHotspotDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHotspotDetector(latency_threshold=0)
        with pytest.raises(ValueError):
            LatencyHotspotDetector(latency_threshold=1, patience=0)

    def test_debounced_by_patience(self):
        detector = LatencyHotspotDetector(latency_threshold=1.0, patience=2)
        hot_snapshot = {"a": node_load("a", 0.9, [tenant_load(1, 2.0)])}
        assert detector.hot_nodes(hot_snapshot) == []  # first strike
        assert detector.hot_nodes(hot_snapshot) == ["a"]  # second strike

    def test_streak_resets_when_cool(self):
        detector = LatencyHotspotDetector(latency_threshold=1.0, patience=2)
        hot = {"a": node_load("a", 0.9, [tenant_load(1, 2.0)])}
        cool = {"a": node_load("a", 0.2, [tenant_load(1, 0.1)])}
        detector.hot_nodes(hot)
        detector.hot_nodes(cool)
        assert detector.hot_nodes(hot) == []

    def test_nan_latency_not_hot(self):
        detector = LatencyHotspotDetector(latency_threshold=1.0, patience=1)
        idle = {"a": node_load("a", 0.9, [tenant_load(1, float("nan"), 0)])}
        assert detector.hot_nodes(idle) == []


class TestUtilizationHotspotDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            UtilizationHotspotDetector(utilization_threshold=0)
        with pytest.raises(ValueError):
            UtilizationHotspotDetector(patience=0)

    def test_threshold_with_patience(self):
        detector = UtilizationHotspotDetector(
            utilization_threshold=0.8, patience=2
        )
        busy = {"a": node_load("a", 0.95)}
        assert detector.hot_nodes(busy) == []
        assert detector.hot_nodes(busy) == ["a"]


class TestGreedyReliefChooser:
    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyReliefChooser(target_headroom=0)

    def test_moves_hottest_tenant_to_coolest_node(self):
        chooser = GreedyReliefChooser()
        loads = {
            "hot": node_load("hot", 0.95, [
                tenant_load(1, 0.3), tenant_load(2, 2.5),
            ]),
            "cool": node_load("cool", 0.1),
            "warm": node_load("warm", 0.5),
        }
        proposal = chooser.propose("hot", loads)
        assert proposal.tenant_id == 2
        assert proposal.target == "cool"
        assert "hotspot relief" in proposal.reason

    def test_no_target_with_headroom(self):
        chooser = GreedyReliefChooser(target_headroom=0.5)
        loads = {
            "hot": node_load("hot", 0.95, [tenant_load(1, 2.0)]),
            "also-busy": node_load("also-busy", 0.9),
        }
        assert chooser.propose("hot", loads) is None

    def test_no_measurable_tenants(self):
        chooser = GreedyReliefChooser()
        loads = {
            "hot": node_load("hot", 0.95,
                             [tenant_load(1, float("nan"), 0)]),
            "cool": node_load("cool", 0.1),
        }
        assert chooser.propose("hot", loads) is None


class TestConsolidationChooser:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConsolidationChooser(max_target_utilization=0)
        with pytest.raises(ValueError):
            ConsolidationChooser(min_source_utilization=1.0)

    def test_drains_idlest_node_onto_fullest(self):
        chooser = ConsolidationChooser(
            max_target_utilization=0.6, min_source_utilization=0.3
        )
        loads = {
            "idle": node_load("idle", 0.05, [tenant_load(9, 0.1, data=32 * MB)]),
            "packed": node_load("packed", 0.4, [
                tenant_load(1, 0.1), tenant_load(2, 0.1),
            ]),
            "empty": node_load("empty", 0.0),
        }
        source = chooser.candidate_source(loads)
        assert source == "idle"
        proposal = chooser.propose(source, loads)
        assert proposal.tenant_id == 9
        assert proposal.target == "packed"  # pack, don't spread

    def test_no_source_when_all_busy(self):
        chooser = ConsolidationChooser(min_source_utilization=0.2)
        loads = {
            "a": node_load("a", 0.5, [tenant_load(1, 0.1)]),
            "b": node_load("b", 0.6, [tenant_load(2, 0.1)]),
        }
        assert chooser.candidate_source(loads) is None


class TestPlacementManager:
    def test_validation(self):
        slacker = Slacker(TINY, nodes=["a"])
        with pytest.raises(ValueError):
            PlacementManager(slacker.cluster, slacker.trace, setpoint=0)
        with pytest.raises(ValueError):
            PlacementManager(slacker.cluster, slacker.trace, setpoint=1,
                             cooldown=-1)

    def test_autonomous_hotspot_relief(self):
        config = scaled_config(EVALUATION, 0.25)
        slacker = Slacker(config, nodes=["n1", "n2"])
        for tid in (1, 2, 3):
            slacker.add_tenant(
                tid, node="n1", workload=True,
                arrival_rate=config.workload.arrival_rate / 3,
            )
        manager = PlacementManager(
            slacker.cluster, slacker.trace, setpoint=1.5,
            detector=LatencyHotspotDetector(latency_threshold=0.5, patience=2),
            interval=10.0, cooldown=20.0,
        )
        slacker.env.process(manager.run())
        slacker.advance(30.0)
        slacker.scale_workload(2, 8.0)
        slacker.advance(200.0)
        assert manager.stats.migrations >= 1
        first = manager.stats.decisions[0]
        assert first.executed
        assert first.proposal.source == "n1"
        assert first.proposal.target == "n2"
        assert slacker.locate(first.proposal.tenant_id) == "n2"

    def test_no_migration_when_stable(self):
        slacker = Slacker(TINY, nodes=["a", "b"])
        slacker.add_tenant(1, node="a", workload=True)
        manager = PlacementManager(
            slacker.cluster, slacker.trace, setpoint=5.0, interval=5.0
        )
        slacker.env.process(manager.run())
        slacker.advance(60.0)
        assert manager.stats.migrations == 0
        assert manager.stats.snapshots >= 10
