"""Per-node slack-budget ledger for concurrent migrations.

Slacker's PID throttle discovers a *single* stream's slack: the latency
headroom between the observed baseline and the setpoint.  Run two
migrations that touch the same node and each controller ramps until the
shared setpoint is reached — together they consume the slack twice and
starve each other (the reason the original manager hard-serialized on a
``_migrating`` flag).

The :class:`SlackBudgetLedger` makes that slack an explicit, divisible
resource.  Every node carries a budget normalized to ``capacity``
(1.0 = the whole node's slack).  Each migration stream reserves a
``share`` of the budget at *both* endpoints — outbound slack at the
source, inbound slack at the target — and the reservation's share feeds
the migration's **effective setpoint** (see
:func:`repro.control.tuning.budget_setpoint`): a stream holding half a
node's slack targets half the latency headroom, so the sum of
concurrent targets never exceeds what one serialized migration was
allowed to consume.

The ledger is pure bookkeeping — no simulation state, no randomness —
and records an audit ``history`` of every reserve/release so tests can
prove the invariant: **no node's inbound + outbound reservations ever
exceed its capacity at any simulated time**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BudgetReservation", "BudgetEvent", "SlackBudgetLedger"]

#: Tolerance for float accumulation in capacity checks.
_EPSILON = 1e-9


@dataclass(frozen=True)
class BudgetReservation:
    """One stream's hold on slack at both endpoints of a migration."""

    tenant_id: int
    source: str
    target: str
    #: Fraction of each endpoint's slack budget this stream holds, (0, 1].
    share: float


@dataclass(frozen=True)
class BudgetEvent:
    """One audit-trail entry: a reserve or release at a node."""

    time: float
    node: str
    #: "reserve" or "release".
    action: str
    tenant_id: int
    #: Node budget in use *after* this event.
    used_after: float


class SlackBudgetLedger:
    """Tracks inbound + outbound slack reservations per node.

    ``capacity`` is the per-node budget (1.0 = the node's full slack);
    each :meth:`reserve` names its stream's ``share`` of it.  A share
    equal to ``capacity`` is the serialized world: one stream per node,
    full setpoint.
    """

    def __init__(self, capacity: float = 1.0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._used: dict[str, float] = {}
        self._active: dict[int, BudgetReservation] = {}
        #: Audit trail of every reserve/release, in event order.
        self.history: list[BudgetEvent] = []
        #: Highest budget ever observed in use on any node.
        self.peak_used = 0.0

    # -- queries ---------------------------------------------------------

    def used(self, node: str) -> float:
        """Budget currently reserved at a node (inbound + outbound)."""
        return self._used.get(node, 0.0)

    def available(self, node: str) -> float:
        """Budget still free at a node."""
        return self.capacity - self.used(node)

    def active_streams(self) -> int:
        """Number of reservations currently held."""
        return len(self._active)

    def reservation(self, tenant_id: int) -> Optional[BudgetReservation]:
        """The live reservation for a tenant, if any."""
        return self._active.get(tenant_id)

    def reservations(self) -> tuple[BudgetReservation, ...]:
        """All live reservations, in admission order."""
        return tuple(self._active.values())

    def can_admit(self, source: str, target: str, share: float) -> bool:
        """Whether both endpoints can absorb a stream of ``share``."""
        if share <= 0:
            return False
        return (
            self.used(source) + share <= self.capacity + _EPSILON
            and self.used(target) + share <= self.capacity + _EPSILON
        )

    # -- mutation --------------------------------------------------------

    def reserve(
        self,
        tenant_id: int,
        source: str,
        target: str,
        *,
        share: float,
        time: float = 0.0,
    ) -> BudgetReservation:
        """Reserve ``share`` of slack at both endpoints.

        Raises :class:`ValueError` on oversubscription or a duplicate
        tenant reservation — the executor must check :meth:`can_admit`
        first; the raise is the invariant's last line of defense.
        """
        if tenant_id in self._active:
            raise ValueError(f"tenant {tenant_id} already holds a reservation")
        if source == target:
            raise ValueError(f"source and target are both {source!r}")
        if not self.can_admit(source, target, share):
            raise ValueError(
                f"budget oversubscribed: {source}={self.used(source):.3f} "
                f"{target}={self.used(target):.3f} + share {share:.3f} "
                f"> capacity {self.capacity:.3f}"
            )
        reservation = BudgetReservation(
            tenant_id=tenant_id, source=source, target=target, share=share
        )
        self._active[tenant_id] = reservation
        for node in (source, target):
            after = self.used(node) + share
            self._used[node] = after
            self.peak_used = max(self.peak_used, after)
            self.history.append(
                BudgetEvent(
                    time=time,
                    node=node,
                    action="reserve",
                    tenant_id=tenant_id,
                    used_after=after,
                )
            )
        return reservation

    def release(self, reservation: BudgetReservation, time: float = 0.0) -> None:
        """Return a reservation's slack to both endpoints.  Idempotent."""
        live = self._active.pop(reservation.tenant_id, None)
        if live is None:
            return
        for node in (reservation.source, reservation.target):
            after = max(0.0, self.used(node) - reservation.share)
            self._used[node] = after
            self.history.append(
                BudgetEvent(
                    time=time,
                    node=node,
                    action="release",
                    tenant_id=reservation.tenant_id,
                    used_after=after,
                )
            )

    # -- audit -----------------------------------------------------------

    def oversubscriptions(self) -> list[BudgetEvent]:
        """History entries that exceeded capacity (must be empty)."""
        return [
            event
            for event in self.history
            if event.used_after > self.capacity + _EPSILON
        ]
