"""Frontend tenant→server mapping.

"In our prototype, we simply resolve the issue [of post-migration
routing] by adding a lightweight frontend server that maintains an
up-to-date mapping of tenants to servers.  Machines issuing queries to
a given tenant register with the frontend to receive updates when the
tenant migrates" (Section 2.2).

Location pushes used to be fire-and-forget: under a partition a
dropped ``TenantLocationUpdate`` left the subscriber routing to the
old node forever.  Pushes now ride the endpoint's retry policy, count
only on a known delivery outcome (delivered vs interrupted vs failed,
matching the bus counters), and a subscriber whose push failed is
remembered as *stale* and re-synced on its next ``lookup`` or
``subscribe`` — so a healed partition heals the directory too.

During a fluid migration the directory additionally carries a
per-chunk ownership map (see ``docs/FLUID.md``): ``lookup_chunk``
answers which node owns a page chunk while the tenant is
dual-resident, and every flip is broadcast as a ``ChunkOwnership``
frame carrying the migration's fencing token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simulation import Environment
from .protocol import ChunkOwnership, TenantLocationUpdate
from .tenant import tenant_port
from .transport import DeliveryError, MessageBus

__all__ = ["TenantLocation", "Frontend"]


@dataclass(frozen=True)
class TenantLocation:
    """Where a tenant currently lives."""

    tenant_id: int
    node: str
    port: int


class Frontend:
    """The cluster's tenant-location directory with push updates."""

    def __init__(self, env: Environment, bus: MessageBus, name: str = "frontend"):
        self.env = env
        self.bus = bus
        self.name = name
        self.endpoint = bus.endpoint(name)
        self._locations: dict[int, TenantLocation] = {}
        #: tenant_id -> endpoint names subscribed to that tenant's moves.
        self._subscribers: dict[int, set[str]] = {}
        #: tenant_id -> monotonic location version (bumped per update).
        self._versions: dict[int, int] = {}
        #: tenant_id -> subscribers whose last push failed outright and
        #: who therefore may be routing on stale state.
        self._stale: dict[int, set[str]] = {}
        #: tenant_id -> (num_chunks, chunk_index -> node) while a fluid
        #: migration has the tenant dual-resident.
        self._chunk_maps: dict[int, tuple[int, dict[int, str]]] = {}
        #: Pushes confirmed delivered.
        self.updates_published = 0
        #: Pushes whose outcome is unknown (send interrupted mid-flight).
        self.updates_interrupted = 0
        #: Pushes that failed outright after retries.
        self.updates_failed = 0
        #: Stale subscribers re-synced on a later lookup/subscribe.
        self.resyncs = 0

    def lookup(self, tenant_id: int) -> Optional[TenantLocation]:
        """Current location of a tenant, or None if unknown."""
        self._resync(tenant_id)
        return self._locations.get(tenant_id)

    def subscribe(self, tenant_id: int, endpoint_name: str) -> Optional[TenantLocation]:
        """Register for updates about a tenant; returns current location."""
        self._subscribers.setdefault(tenant_id, set()).add(endpoint_name)
        self._resync(tenant_id)
        return self._locations.get(tenant_id)

    def unsubscribe(self, tenant_id: int, endpoint_name: str) -> None:
        """Stop receiving updates about a tenant."""
        self._subscribers.get(tenant_id, set()).discard(endpoint_name)
        self._stale.get(tenant_id, set()).discard(endpoint_name)

    def update_location(self, tenant_id: int, node: str) -> TenantLocation:
        """Record a (new) location and push updates to subscribers."""
        location = TenantLocation(
            tenant_id=tenant_id, node=node, port=tenant_port(tenant_id)
        )
        self._locations[tenant_id] = location
        version = self._versions.get(tenant_id, 0) + 1
        self._versions[tenant_id] = version
        subscribers = self._subscribers.get(tenant_id)
        if subscribers:
            update = TenantLocationUpdate(
                tenant_id=tenant_id, node=node, port=location.port, version=version
            )
            for subscriber in sorted(subscribers):
                self.env.process(self._publish(subscriber, tenant_id, version, update))
        return location

    def _publish(self, subscriber: str, tenant_id: int, version: int, message):
        """Push one update and account for its actual delivery outcome."""
        try:
            yield from self.endpoint.send(subscriber, message)
        except DeliveryError as exc:
            if exc.delivered_unknown:
                self.updates_interrupted += 1
            else:
                self.updates_failed += 1
            self._stale.setdefault(tenant_id, set()).add(subscriber)
            return
        self.updates_published += 1
        # Only a successful push of the *current* version clears the
        # stale mark: an old in-flight push must not mask a newer loss.
        if self._versions.get(tenant_id, 0) == version:
            self._stale.get(tenant_id, set()).discard(subscriber)

    def _resync(self, tenant_id: int) -> None:
        """Re-push the current location to subscribers marked stale."""
        stale = self._stale.get(tenant_id)
        if not stale:
            return
        location = self._locations.get(tenant_id)
        if location is None:
            stale.clear()
            return
        version = self._versions.get(tenant_id, 0)
        update = TenantLocationUpdate(
            tenant_id=tenant_id,
            node=location.node,
            port=location.port,
            version=version,
        )
        for subscriber in sorted(stale):
            self.resyncs += 1
            self.env.process(self._publish(subscriber, tenant_id, version, update))

    # -- per-chunk ownership (fluid migrations) ---------------------------

    def begin_chunked(self, tenant_id: int, num_chunks: int, node: str) -> None:
        """Open a dual-resident window: every chunk starts on ``node``."""
        self._chunk_maps[tenant_id] = (
            num_chunks,
            {chunk: node for chunk in range(num_chunks)},
        )

    def end_chunked(self, tenant_id: int) -> None:
        """Close the dual-resident window (tenant single-homed again)."""
        self._chunk_maps.pop(tenant_id, None)

    def chunked(self, tenant_id: int) -> bool:
        """True while the tenant has an open per-chunk map."""
        return tenant_id in self._chunk_maps

    def lookup_chunk(self, tenant_id: int, chunk_index: int) -> Optional[str]:
        """Owning node of one chunk, or None outside a fluid window."""
        entry = self._chunk_maps.get(tenant_id)
        if entry is None:
            return None
        return entry[1].get(chunk_index)

    def chunk_owners(self, tenant_id: int) -> Optional[dict[int, str]]:
        """Snapshot of the chunk map, or None outside a fluid window."""
        entry = self._chunk_maps.get(tenant_id)
        if entry is None:
            return None
        return dict(entry[1])

    def update_chunk_location(
        self, tenant_id: int, chunk_index: int, node: str, *, token: int
    ) -> None:
        """Record a chunk flip and broadcast it to subscribers."""
        entry = self._chunk_maps.get(tenant_id)
        if entry is None:
            return
        num_chunks, owners = entry
        owners[chunk_index] = node
        update = ChunkOwnership(
            tenant_id=tenant_id,
            chunk_index=chunk_index,
            node=node,
            port=tenant_port(tenant_id),
            token=token,
        )
        for subscriber in sorted(self._subscribers.get(tenant_id, ())):
            self.env.process(
                self._publish(subscriber, tenant_id, self._versions.get(tenant_id, 0), update)
            )

    def remove(self, tenant_id: int) -> None:
        """Forget a deleted tenant."""
        self._locations.pop(tenant_id, None)
        self._subscribers.pop(tenant_id, None)
        self._versions.pop(tenant_id, None)
        self._stale.pop(tenant_id, None)
        self._chunk_maps.pop(tenant_id, None)

    def tenants(self) -> list[TenantLocation]:
        """All known locations, sorted by tenant id."""
        return [self._locations[tid] for tid in sorted(self._locations)]
