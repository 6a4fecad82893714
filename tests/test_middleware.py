"""Tests for transport, tenants, frontend, nodes, and cluster."""

import pytest

from repro.middleware.cluster import SlackerCluster
from repro.middleware.frontend import Frontend
from repro.middleware.node import NodeConfig
from repro.middleware.protocol import (
    CreateTenantReply,
    CreateTenantRequest,
    DeleteTenantReply,
    DeleteTenantRequest,
    Heartbeat,
    TenantLocationUpdate,
)
from repro.middleware.tenant import (
    BASE_PORT,
    Tenant,
    TenantRegistry,
    TenantStatus,
    tenant_port,
)
from repro.middleware.transport import MessageBus
from repro.migration.spec import MigrationSpec
from repro.resources.units import MB
from repro.simulation import Environment, RandomStreams


class TestTenantPort:
    def test_fixed_function_of_id(self):
        assert tenant_port(0) == BASE_PORT
        assert tenant_port(5) == BASE_PORT + 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tenant_port(-1)


class TestTenantRegistry:
    def make_tenant(self, env, server, tenant_id=1):
        from repro.db.engine import DatabaseEngine
        from repro.db.pages import TableLayout

        engine = DatabaseEngine(
            env, server, TableLayout.for_data_size(4 * MB),
            name=f"t{tenant_id}", buffer_bytes=1 * MB,
        )
        return Tenant(tenant_id=tenant_id, engine=engine, node="n1")

    def test_add_get_remove(self, env, server):
        registry = TenantRegistry()
        tenant = self.make_tenant(env, server)
        registry.add(tenant)
        assert registry.get(1) is tenant
        assert 1 in registry
        assert len(registry) == 1
        assert registry.remove(1) is tenant
        assert 1 not in registry

    def test_duplicate_rejected(self, env, server):
        registry = TenantRegistry()
        registry.add(self.make_tenant(env, server))
        with pytest.raises(ValueError):
            registry.add(self.make_tenant(env, server))

    def test_missing_lookups_raise(self):
        registry = TenantRegistry()
        with pytest.raises(KeyError):
            registry.get(1)
        with pytest.raises(KeyError):
            registry.remove(1)

    def test_ids_sorted(self, env, server):
        registry = TenantRegistry()
        for tid in (3, 1, 2):
            registry.add(self.make_tenant(env, server, tid))
        assert registry.ids() == [1, 2, 3]

    def test_record_move(self, env, server):
        tenant = self.make_tenant(env, server)
        tenant.record_move(10.0, "n1", "n2")
        assert tenant.node == "n2"
        assert tenant.moves == [(10.0, "n1", "n2")]


class TestMessageBus:
    def test_send_and_receive_roundtrip(self, env):
        bus = MessageBus(env)
        alpha = bus.endpoint("alpha")
        beta = bus.endpoint("beta")

        def sender(env):
            yield from alpha.send("beta", Heartbeat(node="alpha", tenant_count=2,
                                                    disk_utilization=0.5))

        def receiver(env):
            envelope = yield beta.receive()
            return envelope

        env.process(sender(env))
        p = env.process(receiver(env))
        envelope = env.run(until=p)
        assert envelope.sender == "alpha"
        assert envelope.message.node == "alpha"
        assert envelope.wire_bytes > 0
        assert bus.messages_delivered == 1

    def test_unknown_recipient_raises(self, env):
        bus = MessageBus(env)
        alpha = bus.endpoint("alpha")

        def sender(env):
            yield from alpha.send("ghost", Heartbeat(node="a", tenant_count=0,
                                                     disk_utilization=0.0))

        p = env.process(sender(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_nic_charged_when_servers_given(self, env, streams):
        from repro.resources.server import Server

        a = Server(env, "a", streams=streams)
        b = Server(env, "b", streams=streams)
        bus = MessageBus(env, nics={"a": a, "b": b})
        ea, eb = bus.endpoint("a"), bus.endpoint("b")

        def sender(env):
            yield from ea.send("b", Heartbeat(node="a", tenant_count=0,
                                              disk_utilization=0.0))

        env.process(sender(env))
        env.run()
        assert a.nic_out.stats.transfers == 1
        assert b.nic_in.stats.transfers == 1


class TestFrontend:
    def test_lookup_and_update(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        assert frontend.lookup(1) is None
        location = frontend.update_location(1, "node-a")
        assert location.port == tenant_port(1)
        assert frontend.lookup(1).node == "node-a"

    def test_subscribers_pushed_updates(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        app = bus.endpoint("app-server")
        frontend.subscribe(1, "app-server")
        frontend.update_location(1, "node-b")

        def receiver(env):
            envelope = yield app.receive()
            return envelope.message

        p = env.process(receiver(env))
        message = env.run(until=p)
        assert isinstance(message, TenantLocationUpdate)
        assert message.node == "node-b"
        assert frontend.updates_published == 1

    def test_unsubscribe_stops_updates(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        bus.endpoint("app")
        frontend.subscribe(1, "app")
        frontend.unsubscribe(1, "app")
        frontend.update_location(1, "node-c")
        env.run()
        assert frontend.updates_published == 0

    def test_remove_forgets_tenant(self, env):
        bus = MessageBus(env)
        frontend = Frontend(env, bus)
        frontend.update_location(1, "node-a")
        frontend.remove(1)
        assert frontend.lookup(1) is None
        assert frontend.tenants() == []


class TestCluster:
    def make_cluster(self, env, names=("a", "b")):
        return SlackerCluster(
            env, list(names), streams=RandomStreams(5),
            node_config=NodeConfig(buffer_bytes=1 * MB, chunk_bytes=1 * MB),
        )

    def test_validation(self, env):
        with pytest.raises(ValueError):
            SlackerCluster(env, [])
        with pytest.raises(ValueError):
            SlackerCluster(env, ["a", "a"])

    def test_nodes_know_their_peers(self, env):
        cluster = self.make_cluster(env, ("a", "b", "c"))
        assert set(cluster.node("a").peers) == {"b", "c"}
        assert cluster.node("a") not in cluster.node("a").peers.values()

    def test_peer_directory_is_the_cluster_order_without_self(self, env):
        names = ("c", "a", "d", "b")
        cluster = self.make_cluster(env, names)
        for name in names:
            peers = cluster.node(name).peers
            expected = [n for n in names if n != name]
            assert list(peers) == expected
            assert len(peers) == len(expected)
            assert name not in peers
            assert "zz" not in peers
            assert all(peers[n] is cluster.node(n) for n in expected)
            with pytest.raises(KeyError):
                peers[name]
            with pytest.raises(KeyError):
                peers["zz"]

    def test_unknown_node_raises(self, env):
        cluster = self.make_cluster(env)
        with pytest.raises(KeyError):
            cluster.node("zz")

    def test_create_tenant_registers_everywhere(self, env):
        cluster = self.make_cluster(env)
        tenant = cluster.node("a").create_tenant(7, data_bytes=4 * MB)
        assert tenant.port == tenant_port(7)
        assert cluster.locate(7) == "a"
        assert cluster.total_tenants() == 1

    def test_delete_tenant(self, env):
        cluster = self.make_cluster(env)
        node = cluster.node("a")
        node.create_tenant(7, data_bytes=4 * MB)
        node.delete_tenant(7)
        assert cluster.locate(7) is None
        assert cluster.total_tenants() == 0
        assert node.stats.tenants_deleted == 1

    def test_create_via_protocol_message(self, env):
        cluster = self.make_cluster(env)
        admin = cluster.bus.endpoint("admin")

        def admin_flow(env):
            yield from admin.send(
                "a", CreateTenantRequest(tenant_id=4, data_bytes=4 * MB,
                                         buffer_bytes=1 * MB)
            )
            envelope = yield admin.receive()
            return envelope.message

        p = env.process(admin_flow(env))
        reply = env.run(until=p)
        assert isinstance(reply, CreateTenantReply)
        assert reply.ok
        assert reply.port == tenant_port(4)
        assert cluster.locate(4) == "a"

    def test_delete_via_protocol_message(self, env):
        cluster = self.make_cluster(env)
        cluster.node("a").create_tenant(4, data_bytes=4 * MB)
        admin = cluster.bus.endpoint("admin")

        def admin_flow(env):
            yield from admin.send("a", DeleteTenantRequest(tenant_id=4))
            envelope = yield admin.receive()
            return envelope.message

        reply = env.run(until=env.process(admin_flow(env)))
        assert isinstance(reply, DeleteTenantReply)
        assert reply.ok
        assert cluster.locate(4) is None

    def test_delete_unknown_tenant_nacked(self, env):
        cluster = self.make_cluster(env)
        admin = cluster.bus.endpoint("admin")

        def admin_flow(env):
            yield from admin.send("a", DeleteTenantRequest(tenant_id=999))
            envelope = yield admin.receive()
            return envelope.message

        reply = env.run(until=env.process(admin_flow(env)))
        assert not reply.ok

    def test_migrate_moves_tenant_between_nodes(self, env):
        cluster = self.make_cluster(env)
        node_a = cluster.node("a")
        tenant = node_a.create_tenant(3, data_bytes=8 * MB)

        def migrate(env):
            result = yield env.process(
                node_a.migrate_tenant(3, "b", MigrationSpec.fixed(8 * MB))
            )
            return result

        result = env.run(until=env.process(migrate(env)))
        assert cluster.locate(3) == "b"
        assert 3 in cluster.node("b").registry
        assert 3 not in node_a.registry
        assert tenant.engine is result.target
        assert tenant.moves and tenant.moves[-1][1:] == ("a", "b")
        assert node_a.stats.migrations_out == 1
        assert cluster.node("b").stats.migrations_in == 1

    def test_migrate_validation(self, env):
        cluster = self.make_cluster(env)
        node_a = cluster.node("a")
        node_a.create_tenant(3, data_bytes=4 * MB)
        with pytest.raises(ValueError):
            env.run(
                until=env.process(
                    node_a.migrate_tenant(3, "b", MigrationSpec.none())
                )
            )
        with pytest.raises(KeyError):
            env.run(
                until=env.process(
                    node_a.migrate_tenant(3, "nope", MigrationSpec.fixed(1.0))
                )
            )

    def test_attach_latency_series_requires_tenant(self, env):
        from repro.simulation import Series

        cluster = self.make_cluster(env)
        with pytest.raises(KeyError):
            cluster.node("a").attach_latency_series(1, Series("x"))

    def test_latency_series_listing(self, env):
        from repro.simulation import Series

        cluster = self.make_cluster(env)
        node = cluster.node("a")
        node.create_tenant(1, data_bytes=4 * MB)
        node.create_tenant(2, data_bytes=4 * MB)
        s1, s2 = Series("one"), Series("two")
        node.attach_latency_series(1, s1)
        node.attach_latency_series(2, s2)
        assert node.latency_series() == [s1, s2]
        node.detach_latency_series(1)
        assert node.latency_series() == [s2]
