"""The operator command console.

"Tenants are represented by globally-unique numeric IDs, which are used
to issue commands to Slacker (such as 'migrate tenant 5 to server
XYZ')" (Section 2.2).  :class:`AdminConsole` parses exactly that
command language and executes it against a cluster — the interface a
DBA (or the placement manager) drives Slacker through.

Grammar::

    create tenant <id> on <node> [size <N>(MB|GB)]
    delete tenant <id>
    migrate tenant <id> to <node> [setpoint <N>ms | rate <N>MB/s]
    drain <node> [setpoint <N>ms]
    locate tenant <id>
    status
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..analysis.report import Table, format_ms, format_rate
from ..migration.spec import MigrationSpec
from ..placement.manager import PlacementManager
from ..resources.units import GB, MB
from .cluster import SlackerCluster

__all__ = ["AdminError", "AdminCommand", "AdminConsole"]


class AdminError(Exception):
    """Raised for unparseable or inapplicable commands."""


@dataclass(frozen=True)
class AdminCommand:
    """A parsed operator command."""

    verb: str
    tenant_id: Optional[int] = None
    node: Optional[str] = None
    size_bytes: Optional[int] = None
    setpoint: Optional[float] = None
    rate: Optional[float] = None


_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)(MB|GB)$", re.IGNORECASE)
_SETPOINT_RE = re.compile(r"^(\d+(?:\.\d+)?)(ms|s)$", re.IGNORECASE)
_RATE_RE = re.compile(r"^(\d+(?:\.\d+)?)MB/s$", re.IGNORECASE)


def _parse_size(token: str) -> int:
    match = _SIZE_RE.match(token)
    if not match:
        raise AdminError(f"bad size {token!r} (want e.g. 512MB or 1GB)")
    value, unit = float(match.group(1)), match.group(2).upper()
    return int(value * (GB if unit == "GB" else MB))


def _parse_setpoint(token: str) -> float:
    match = _SETPOINT_RE.match(token)
    if not match:
        raise AdminError(f"bad setpoint {token!r} (want e.g. 1000ms or 1.5s)")
    value, unit = float(match.group(1)), match.group(2).lower()
    return value / 1000.0 if unit == "ms" else value


def _parse_rate(token: str) -> float:
    match = _RATE_RE.match(token)
    if not match:
        raise AdminError(f"bad rate {token!r} (want e.g. 8MB/s)")
    return float(match.group(1)) * MB


def parse(command: str) -> AdminCommand:
    """Parse one command line into an :class:`AdminCommand`."""
    tokens = command.split()
    if not tokens:
        raise AdminError("empty command")
    verb = tokens[0].lower()

    if verb == "status":
        return AdminCommand(verb="status")

    if verb == "locate":
        if len(tokens) != 3 or tokens[1].lower() != "tenant":
            raise AdminError("usage: locate tenant <id>")
        return AdminCommand(verb="locate", tenant_id=int(tokens[2]))

    if verb == "create":
        if len(tokens) < 5 or tokens[1].lower() != "tenant" or tokens[3].lower() != "on":
            raise AdminError("usage: create tenant <id> on <node> [size <N>MB]")
        cmd = AdminCommand(
            verb="create", tenant_id=int(tokens[2]), node=tokens[4]
        )
        rest = tokens[5:]
        if rest:
            if len(rest) != 2 or rest[0].lower() != "size":
                raise AdminError("usage: create tenant <id> on <node> [size <N>MB]")
            cmd = AdminCommand(
                verb="create",
                tenant_id=cmd.tenant_id,
                node=cmd.node,
                size_bytes=_parse_size(rest[1]),
            )
        return cmd

    if verb == "delete":
        if len(tokens) != 3 or tokens[1].lower() != "tenant":
            raise AdminError("usage: delete tenant <id>")
        return AdminCommand(verb="delete", tenant_id=int(tokens[2]))

    if verb == "migrate":
        if len(tokens) < 5 or tokens[1].lower() != "tenant" or tokens[3].lower() != "to":
            raise AdminError(
                "usage: migrate tenant <id> to <node> [setpoint <N>ms | rate <N>MB/s]"
            )
        tenant_id, node = int(tokens[2]), tokens[4]
        rest = tokens[5:]
        setpoint = rate = None
        if rest:
            if len(rest) != 2:
                raise AdminError("give either 'setpoint <N>ms' or 'rate <N>MB/s'")
            key = rest[0].lower()
            if key == "setpoint":
                setpoint = _parse_setpoint(rest[1])
            elif key == "rate":
                rate = _parse_rate(rest[1])
            else:
                raise AdminError(f"unknown option {rest[0]!r}")
        return AdminCommand(
            verb="migrate", tenant_id=tenant_id, node=node,
            setpoint=setpoint, rate=rate,
        )

    if verb == "drain":
        if len(tokens) < 2:
            raise AdminError("usage: drain <node> [setpoint <N>ms]")
        node = tokens[1]
        rest = tokens[2:]
        setpoint = None
        if rest:
            if len(rest) != 2 or rest[0].lower() != "setpoint":
                raise AdminError("usage: drain <node> [setpoint <N>ms]")
            setpoint = _parse_setpoint(rest[1])
        return AdminCommand(verb="drain", node=node, setpoint=setpoint)

    raise AdminError(f"unknown command {verb!r}")


class AdminConsole:
    """Executes operator commands against a cluster, synchronously.

    ``execute`` returns a human-readable result line (or table) and
    advances the simulation as far as the command requires — a
    migration command returns only after handover.
    """

    #: Setpoint used when a migrate command gives no throttle option.
    DEFAULT_SETPOINT = 1.0

    #: Concurrency of a console-driven drain when no manager is given.
    DRAIN_MAX_CONCURRENT = 4

    def __init__(
        self,
        cluster: SlackerCluster,
        default_tenant_bytes: int = 1 * GB,
        manager: Optional[PlacementManager] = None,
    ):
        self.cluster = cluster
        self.default_tenant_bytes = default_tenant_bytes
        #: Placement manager the ``drain`` verb runs through; built on
        #: demand (wave mode, console defaults) when not supplied.
        self.manager = manager
        self.log: list[str] = []

    def execute(self, command: str) -> str:
        """Parse and run one command; returns the result text."""
        cmd = parse(command)
        handler = getattr(self, f"_do_{cmd.verb}")
        result = handler(cmd)
        self.log.append(command)
        return result

    # -- handlers --------------------------------------------------------------

    def _node(self, name: str):
        try:
            return self.cluster.node(name)
        except KeyError:
            raise AdminError(
                f"no node {name!r}; nodes: {', '.join(sorted(self.cluster.nodes))}"
            ) from None

    def _do_status(self, cmd: AdminCommand) -> str:
        table = Table("cluster status", ["node", "tenants", "tenant ids"])
        for name in sorted(self.cluster.nodes):
            node = self.cluster.nodes[name]
            ids = ", ".join(str(t) for t in node.registry.ids()) or "-"
            table.add_row(name, len(node.registry), ids)
        return table.render()

    def _do_locate(self, cmd: AdminCommand) -> str:
        location = self.cluster.frontend.lookup(cmd.tenant_id)
        if location is None:
            return f"tenant {cmd.tenant_id}: unknown"
        return (
            f"tenant {cmd.tenant_id}: node {location.node}, "
            f"port {location.port}"
        )

    def _do_create(self, cmd: AdminCommand) -> str:
        node = self._node(cmd.node)
        tenant = node.create_tenant(
            cmd.tenant_id, cmd.size_bytes or self.default_tenant_bytes
        )
        return (
            f"created tenant {tenant.tenant_id} on {cmd.node} "
            f"(port {tenant.port}, {tenant.data_bytes // MB} MB)"
        )

    def _do_delete(self, cmd: AdminCommand) -> str:
        location = self.cluster.frontend.lookup(cmd.tenant_id)
        if location is None:
            raise AdminError(f"unknown tenant {cmd.tenant_id}")
        self.cluster.node(location.node).delete_tenant(cmd.tenant_id)
        return f"deleted tenant {cmd.tenant_id} from {location.node}"

    def _do_migrate(self, cmd: AdminCommand) -> str:
        location = self.cluster.frontend.lookup(cmd.tenant_id)
        if location is None:
            raise AdminError(f"unknown tenant {cmd.tenant_id}")
        source = self.cluster.node(location.node)
        if cmd.rate is not None:
            spec = MigrationSpec.fixed(cmd.rate)
        else:
            spec = MigrationSpec.dynamic(cmd.setpoint or self.DEFAULT_SETPOINT)
        env = self.cluster.env
        proc = env.process(source.migrate_tenant(cmd.tenant_id, cmd.node, spec))
        result = env.run(until=proc)
        return (
            f"migrated tenant {cmd.tenant_id}: {location.node} -> {cmd.node} "
            f"in {result.duration:.1f} s at {format_rate(result.average_rate)}, "
            f"downtime {format_ms(result.downtime)}"
        )

    def _do_drain(self, cmd: AdminCommand) -> str:
        self._node(cmd.node)  # fail fast with the console's error text
        manager = self.manager
        if manager is None:
            manager = PlacementManager(
                self.cluster,
                self.cluster.trace,
                setpoint=cmd.setpoint or self.DEFAULT_SETPOINT,
                max_concurrent=self.DRAIN_MAX_CONCURRENT,
                max_streams_per_node=2,
            )
            self.manager = manager
        env = self.cluster.env
        proc = env.process(manager.drain(cmd.node, setpoint=cmd.setpoint))
        report = env.run(until=proc)
        if report.drained:
            return (
                f"drained {cmd.node}: {report.migrations} migrations "
                f"in {report.duration:.1f} s"
            )
        return (
            f"drain {cmd.node} incomplete: {report.remaining} tenants left "
            f"after {report.duration:.1f} s ({report.aborted} aborted)"
        )
