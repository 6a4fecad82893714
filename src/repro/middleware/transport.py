"""In-process message transport between Slacker nodes.

Control messages are serialized with the real wire codec
(:mod:`repro.middleware.protocol`), charged to the sending and
receiving NICs, and delivered into the destination node's inbox, so
the control plane exercises genuine encode/decode on every hop even
though no sockets exist in the simulation.

Fault injection and delivery guarantees
---------------------------------------

The bus carries two optional hooks, both ``None`` by default so the
fault-free fast path is byte-for-byte identical to a bus without them:

* ``faults`` — a :class:`~repro.faults.injector.FaultInjector` (duck
  typed: anything with ``is_down(name)`` and ``message_fate(sender,
  recipient)``).  When set, messages may be dropped, delayed,
  duplicated, or reordered, and messages to/from crashed nodes vanish.
* ``retry_policy`` — a :class:`RetryPolicy`.  When set,
  :meth:`Endpoint.send` races each delivery against a per-message
  timeout and retries with exponential backoff plus deterministic
  jitter (drawn from ``jitter_rng``, a seeded stream — never the
  global ``random`` module).  A timed-out attempt's in-flight delivery
  keeps running, so late deliveries surface as natural duplicates —
  exactly the at-least-once behaviour receivers must be idempotent
  against.

Without a policy, a dropped message raises :class:`DeliveryError`
immediately (at-most-once, fail-fast).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from ..simulation import Environment, Store
from .protocol import decode_message, encode_message

__all__ = ["DeliveryError", "RetryPolicy", "Envelope", "MessageBus", "Endpoint"]


class DeliveryError(Exception):
    """A message could not be delivered (dropped, or retries exhausted).

    ``delivered_unknown`` distinguishes *interrupted* sends from failed
    ones: the message may have reached the recipient, but every
    acknowledgement was lost (e.g. the reply path is partitioned), so
    the sender cannot know.  Callers must treat the operation as
    possibly-applied — receivers are idempotent precisely for this.
    """

    def __init__(
        self,
        sender: str,
        recipient: str,
        reason: str,
        delivered_unknown: bool = False,
    ):
        super().__init__(f"{sender} -> {recipient}: {reason}")
        self.sender = sender
        self.recipient = recipient
        self.reason = reason
        self.delivered_unknown = delivered_unknown

    def __reduce__(self):
        # ``args`` holds only the formatted message, so the default
        # reduction would call ``__init__`` with one argument.
        return (
            type(self),
            (self.sender, self.recipient, self.reason, self.delivered_unknown),
        )


#: Sentinel returned by :meth:`MessageBus.deliver` when the message
#: reached the recipient's inbox but the acknowledgement path back to
#: the sender is partitioned: the payload landed, the sender can't know.
_UNACKED = "unacked"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry delivery with exponential backoff and jitter.

    Every attempt is bounded by ``timeout`` seconds; the k-th retry
    backs off ``backoff_base * backoff_factor**(k-1)`` seconds plus a
    jitter term of up to ``backoff_base * jitter_frac`` drawn from the
    bus's seeded jitter stream.  ``max_attempts`` caps the total number
    of attempts (first try included) — retry loops must always be
    bounded (lint rule SLK009).
    """

    #: Per-attempt delivery timeout, seconds.
    timeout: float = 0.5
    #: Total attempts (first try included).
    max_attempts: int = 4
    #: First-retry backoff, seconds.
    backoff_base: float = 0.05
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Jitter amplitude as a fraction of ``backoff_base``.
    jitter_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base must be >= 0 and backoff_factor >= 1")
        if self.jitter_frac < 0:
            raise ValueError(f"jitter_frac must be >= 0, got {self.jitter_frac}")

    def backoff(self, attempt: int, rng: Optional[random.Random]) -> float:
        """Backoff before retry ``attempt`` (1-based), seconds."""
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if rng is not None and self.jitter_frac > 0:
            delay += self.backoff_base * self.jitter_frac * rng.random()
        return delay


@dataclass(frozen=True)
class Envelope:
    """A delivered message plus its routing metadata."""

    sender: str
    recipient: str
    message: Any
    sent_at: float
    delivered_at: float
    wire_bytes: int


class Endpoint:
    """One node's attachment point to the bus."""

    def __init__(self, bus: "MessageBus", name: str):
        self.bus = bus
        self.name = name
        self.inbox: Store = Store(bus.env)
        #: Sends *started* (not just fully delivered ones): failed and
        #: interrupted deliveries count too, so retry accounting adds up.
        self.sent = 0
        #: Sends that reached the recipient's inbox at least once.
        self.delivered = 0
        #: Sends that gave up (dropped without a policy, or retries
        #: exhausted under one) with no attempt known to have landed.
        self.failed = 0
        #: Sends that gave up but whose payload *may* have been
        #: delivered — every acknowledgement was lost (one-way
        #: partition on the reply path).  Distinct from ``failed``:
        #: the outcome is unknown, not negative.
        self.interrupted = 0
        #: Retry attempts beyond each send's first try.
        self.retries = 0
        #: Attempts abandoned because the per-message timeout fired.
        self.timeouts = 0
        self.received = 0

    def send(self, recipient: str, message: Any):
        """Process: serialize and deliver ``message`` to ``recipient``.

        Raises :class:`DeliveryError` when the message cannot be
        delivered (after bounded retries when the bus carries a
        :class:`RetryPolicy`).
        """
        self.sent += 1
        obs = self.bus.obs
        if obs is not None:
            obs.transport_sends.inc()
        policy = self.bus.retry_policy
        if policy is None:
            # Fast path: byte-identical to the historical behaviour —
            # no extra events, single attempt, fail fast on a drop.
            delivered = yield from self.bus.deliver(self.name, recipient, message)
            if not delivered:
                self.failed += 1
                self.bus.send_failures += 1
                if obs is not None:
                    obs.transport_failures.inc()
                raise DeliveryError(self.name, recipient, "message dropped")
            self.delivered += 1
            if obs is not None:
                obs.transport_delivered.inc()
            return True

        env = self.bus.env
        unacked = False
        for attempt in range(policy.max_attempts):
            if attempt:
                self.retries += 1
                self.bus.send_retries += 1
                if obs is not None:
                    obs.transport_retries.inc()
                yield env.timeout(policy.backoff(attempt, self.bus.jitter_rng))
            delivery = env.process(self.bus.deliver(self.name, recipient, message))
            deadline = env.timeout(policy.timeout)
            yield env.any_of([delivery, deadline])
            if delivery.triggered:
                value = delivery.value
                if value is _UNACKED:
                    # The payload landed but the reply path is
                    # partitioned: the sender cannot distinguish this
                    # from a lost message until the timeout fires.
                    unacked = True
                    if not deadline.triggered:
                        yield deadline
                    self.timeouts += 1
                    self.bus.send_timeouts += 1
                    if obs is not None:
                        obs.transport_timeouts.inc()
                    continue
                if value:
                    self.delivered += 1
                    if obs is not None:
                        obs.transport_delivered.inc()
                    return True
                # Dropped: back off and retry.
            else:
                # Timed out.  The in-flight delivery keeps running: if
                # it lands later the receiver sees a duplicate, which
                # handlers must (and do) tolerate.
                self.timeouts += 1
                self.bus.send_timeouts += 1
                if obs is not None:
                    obs.transport_timeouts.inc()
        if unacked:
            # Interrupted, not failed: at least one attempt reached the
            # recipient, only the acknowledgements were lost.
            self.interrupted += 1
            self.bus.send_interrupted += 1
            if obs is not None:
                obs.transport_failures.inc()
            raise DeliveryError(
                self.name,
                recipient,
                f"unacknowledged after {policy.max_attempts} attempts",
                delivered_unknown=True,
            )
        self.failed += 1
        self.bus.send_failures += 1
        if obs is not None:
            obs.transport_failures.inc()
        raise DeliveryError(
            self.name, recipient, f"gave up after {policy.max_attempts} attempts"
        )

    def receive(self):
        """Event: the next :class:`Envelope` for this endpoint."""
        return self.inbox.get()


class MessageBus:
    """Routes encoded messages between named endpoints."""

    def __init__(
        self,
        env: Environment,
        nics: Optional[dict] = None,
        retry_policy: Optional[RetryPolicy] = None,
        jitter_rng: Optional[random.Random] = None,
    ):
        self.env = env
        #: Optional map name -> Server; when present, transfers are
        #: charged to the real simulated NICs.
        self.nics = nics or {}
        #: Optional fault injector (see :mod:`repro.faults`); ``None``
        #: keeps delivery fault-free with zero overhead.
        self.faults = None
        #: Optional :class:`~repro.obs.Observability`; ``None`` keeps
        #: the send/deliver paths free of metric updates.
        self.obs = None
        #: Optional delivery policy for :meth:`Endpoint.send`.
        self.retry_policy = retry_policy
        #: Seeded RNG for backoff jitter (from ``RandomStreams``).
        self.jitter_rng = jitter_rng
        self._endpoints: dict[str, Endpoint] = {}
        self.messages_delivered = 0
        self.bytes_on_wire = 0
        #: Messages dropped by injected message faults.
        self.messages_dropped = 0
        #: Messages dropped because an end of the hop was crashed.
        self.messages_dropped_dead = 0
        #: Messages lost to a partitioned (blocked) link.
        self.messages_dropped_partition = 0
        #: Deliveries that landed but whose ack path was partitioned.
        self.acks_lost = 0
        #: Extra copies enqueued by duplicate faults.
        self.messages_duplicated = 0
        #: Messages held back by delay/reorder faults.
        self.messages_delayed = 0
        #: Total injected delay, seconds.
        self.delay_seconds = 0.0
        #: Endpoint retry attempts, bus-wide.
        self.send_retries = 0
        #: Endpoint per-attempt timeouts, bus-wide.
        self.send_timeouts = 0
        #: Sends that ultimately failed, bus-wide.
        self.send_failures = 0
        #: Sends abandoned with delivery status unknown, bus-wide.
        self.send_interrupted = 0

    def endpoint(self, name: str) -> Endpoint:
        """Create (or fetch) the endpoint for ``name``."""
        if name not in self._endpoints:
            self._endpoints[name] = Endpoint(self, name)
        return self._endpoints[name]

    def counters(self) -> dict[str, float]:
        """Delivery/fault counters, for chaos reports and invariants."""
        return {
            "messages_delivered": self.messages_delivered,
            "bytes_on_wire": self.bytes_on_wire,
            "messages_dropped": self.messages_dropped,
            "messages_dropped_dead": self.messages_dropped_dead,
            "messages_dropped_partition": self.messages_dropped_partition,
            "acks_lost": self.acks_lost,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "delay_seconds": self.delay_seconds,
            "send_retries": self.send_retries,
            "send_timeouts": self.send_timeouts,
            "send_failures": self.send_failures,
            "send_interrupted": self.send_interrupted,
        }

    def deliver(self, sender: str, recipient: str, message: Any):
        """Process: encode, transfer, decode, and enqueue a message.

        Returns ``True`` when the message reached the recipient's
        inbox, ``False`` when a fault consumed it.
        """
        if recipient not in self._endpoints:
            raise KeyError(f"no endpoint named {recipient!r}")
        wire = encode_message(message)
        sent_at = self.env.now

        faults = self.faults
        if faults is not None and faults.is_down(sender):
            # A crashed middleware daemon sends nothing.
            self.messages_dropped_dead += 1
            if self.obs is not None:
                self.obs.transport_drops.inc()
            return False

        # Duck-typed like the rest of the fault hook: test doubles may
        # implement only is_down/message_fate.
        link_blocked = getattr(faults, "link_blocked", None) if faults is not None else None

        sender_server = self.nics.get(sender)
        recipient_server = self.nics.get(recipient)
        if sender_server is not None:
            yield from sender_server.nic_out.transfer(len(wire))

        if link_blocked is not None and link_blocked(sender, recipient):
            # The forward link is partitioned: the sender paid to
            # transmit, the wire ate the frame.
            self.messages_dropped_partition += 1
            if self.obs is not None:
                self.obs.transport_drops.inc()
            return False

        fate = None
        if faults is not None:
            fate = faults.message_fate(sender, recipient)
            if fate is not None:
                if fate.drop:
                    self.messages_dropped += 1
                    if self.obs is not None:
                        self.obs.transport_drops.inc()
                    return False
                if fate.delay > 0:
                    self.messages_delayed += 1
                    self.delay_seconds += fate.delay
                    yield self.env.timeout(fate.delay)
            if faults.is_down(recipient):
                # Arrived at a crashed daemon: nobody is listening.
                self.messages_dropped_dead += 1
                if self.obs is not None:
                    self.obs.transport_drops.inc()
                return False

        if recipient_server is not None:
            yield from recipient_server.nic_in.transfer(len(wire))

        decoded, _ = decode_message(wire)
        envelope = Envelope(
            sender=sender,
            recipient=recipient,
            message=decoded,
            sent_at=sent_at,
            delivered_at=self.env.now,
            wire_bytes=len(wire),
        )
        target = self._endpoints[recipient]
        target.inbox.put(envelope)
        target.received += 1
        self.messages_delivered += 1
        self.bytes_on_wire += len(wire)
        if fate is not None and fate.duplicate:
            # At-least-once delivery: the receiver sees the same
            # payload twice and must handle it idempotently.
            target.inbox.put(envelope)
            target.received += 1
            self.messages_duplicated += 1
        if (
            self.retry_policy is not None
            and link_blocked is not None
            and link_blocked(recipient, sender)
        ):
            # Delivered, but the reply/ack link back to the sender is
            # cut: report one-way silence so Endpoint.send accounts
            # this as interrupted, not delivered.  Only modelled under
            # a retry policy — the fail-fast path has no ack concept.
            self.acks_lost += 1
            return _UNACKED
        return True
