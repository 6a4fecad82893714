"""Every migration method runs through ``SlackerNode.migrate_tenant``.

One table of specs, one check: whatever the data plane, the node's
control plane moves the tenant in the registry and the frontend,
exchanges the request/accept/complete frames, counts the migration,
and (with leases on) releases its lease after a valid commit.
"""

import pytest

from repro.core.config import CASE_STUDY
from repro.experiments.common import scaled_config
from repro.experiments.harness import _build_cluster, attach_workload, run_single_tenant
from repro.migration import MigrationAborted, MigrationSpec
from repro.resources.units import MB
from repro.simulation import RandomStreams, Trace

CONFIG = scaled_config(CASE_STUDY, 0.02, 42)

SPECS = {
    "fixed": MigrationSpec.fixed(8 * MB),
    "dynamic": MigrationSpec.dynamic(0.15),
    "fluid": MigrationSpec.fluid(8 * MB, chunks=4),
    "on-demand": MigrationSpec.on_demand(8 * MB),
    "stop-and-copy": MigrationSpec(kind="stop-and-copy"),
    "dump-reimport": MigrationSpec(kind="dump-reimport"),
}


def tap_deliveries(bus) -> list:
    """Record the type name of every message the bus lands."""
    landed = []
    deliver = bus.deliver

    def tapped(sender, recipient, message):
        ok = yield from deliver(sender, recipient, message)
        if ok:
            landed.append(type(message).__name__)
        return ok

    bus.deliver = tapped
    return landed


def migrate(spec, lease_ttl=None):
    """Migrate tenant 1 under a light workload.

    Returns the cluster, the migration result and the landed frames.
    """
    streams = RandomStreams(CONFIG.seed)
    cluster = _build_cluster(CONFIG, streams, lease_ttl=lease_ttl)
    env = cluster.env
    source = cluster.node("source")
    tenant = source.create_tenant(1, CONFIG.tenant.data_bytes)
    client, _ = attach_workload(
        cluster, CONFIG, tenant, streams, Trace(), series="tenant-1"
    )
    client.start()
    landed = tap_deliveries(cluster.bus)

    def driver():
        yield env.timeout(2.0)
        return (yield env.process(source.migrate_tenant(1, "target", spec)))

    result = env.run(until=env.process(driver()))
    client.stop()
    return cluster, result, landed


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("lease_ttl", [None, 4.0])
def test_every_method_hands_over_through_the_node(kind, lease_ttl):
    cluster, result, landed = migrate(SPECS[kind], lease_ttl=lease_ttl)
    assert cluster.tenant_census() == {1: ["target"]}
    assert cluster.locate(1) == "target"
    for frame in ("Request", "Accept", "Complete"):
        assert f"MigrateTenant{frame}" in landed, frame
    source = cluster.node("source")
    assert source.stats.migrations_out == 1
    assert source.stats.completed == [result]
    assert cluster.node("target").registry.get(1).engine is result.target
    assert result.total_bytes > 0 and result.average_rate > 0
    if lease_ttl is not None:
        manager = cluster.lease_manager
        assert manager.outstanding() == []
        assert manager.commit_log and all(r.valid for r in manager.commit_log)


def test_none_spec_is_refused():
    cluster = _build_cluster(CONFIG, RandomStreams(1))
    source = cluster.node("source")
    source.create_tenant(1, CONFIG.tenant.data_bytes)
    with pytest.raises(ValueError):
        cluster.env.run(
            until=cluster.env.process(
                source.migrate_tenant(1, "target", MigrationSpec.none())
            )
        )


class TestStopAndCopyRate:
    def test_rate_throttles_the_copy(self):
        def duration(rate_mb):
            spec = MigrationSpec(kind="stop-and-copy", rate=rate_mb * MB)
            return run_single_tenant(CONFIG, spec, warmup=2, cooldown=0).duration

        assert duration(4) > duration(12)

    @pytest.mark.parametrize("kind", ["stop-and-copy", "dump-reimport", "on-demand"])
    def test_non_positive_rate_rejected(self, kind):
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError):
                MigrationSpec(kind=kind, rate=rate)


class TestFluidSpec:
    def test_exactly_one_of_rate_or_setpoint(self):
        assert MigrationSpec.fluid(4 * MB).rate == 4 * MB
        assert MigrationSpec.fluid(setpoint=0.5).setpoint == 0.5
        with pytest.raises(ValueError):
            MigrationSpec.fluid()
        with pytest.raises(ValueError):
            MigrationSpec.fluid(4 * MB, setpoint=0.5)

    def test_setpoint_only_for_pid_kinds(self):
        with pytest.raises(ValueError):
            MigrationSpec(kind="stop-and-copy", setpoint=0.5)

    def test_fluid_under_a_setpoint_runs_the_pid_loop(self):
        cluster, result, _ = migrate(MigrationSpec.fluid(setpoint=0.5, chunks=4))
        assert result.num_chunks == 4
        assert "source:mig-1:throttle_rate" in cluster.node("source").trace


class TestBaselineAbort:
    """Stop-and-copy and on-demand abort until their point of no return."""

    def start(self, kind, abort_at):
        streams = RandomStreams(CONFIG.seed)
        cluster = _build_cluster(CONFIG, streams)
        env = cluster.env
        source = cluster.node("source")
        tenant = source.create_tenant(1, CONFIG.tenant.data_bytes)
        engine = tenant.engine
        outcome = []

        def driver():
            try:
                yield env.process(
                    source.migrate_tenant(1, "target", MigrationSpec(kind=kind))
                )
            except MigrationAborted as exc:
                outcome.append(("aborted", exc.reason))
            else:
                outcome.append(("completed", ""))

        def aborter():
            yield env.timeout(abort_at)
            (migration,) = source.active_migrations.values()
            outcome.append(("accepted", migration.try_abort("operator")))

        env.process(driver())
        env.process(aborter())
        env.run()
        return cluster, engine, outcome

    @pytest.mark.parametrize("kind", ["stop-and-copy", "on-demand"])
    def test_abort_before_commit_keeps_tenant_at_source(self, kind):
        cluster, engine, outcome = self.start(kind, abort_at=0.05)
        assert outcome == [("accepted", True), ("aborted", "operator")]
        assert cluster.tenant_census() == {1: ["source"]}
        assert cluster.locate(1) == "source"
        assert not engine.is_frozen
        tenant = cluster.node("source").registry.get(1)
        assert tenant.engine is engine
        assert cluster.node("source").stats.migrations_aborted == 1

    def test_on_demand_refuses_abort_after_the_switch(self):
        # The wireframe is a few MB; by 2 s the switch is long past and
        # the background push is still running.
        cluster, _, outcome = self.start("on-demand", abort_at=2.0)
        assert outcome == [("accepted", False), ("completed", "")]
        assert cluster.tenant_census() == {1: ["target"]}
