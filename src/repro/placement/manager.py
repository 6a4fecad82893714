"""The placement manager: an autonomous rebalancing control loop.

Glues the monitor and policies to Slacker's migration machinery
through the wave stack: every snapshot interval the detector says
*when* relief is needed, the :class:`~repro.placement.executor.WavePlanner`
turns the snapshot into a wave of non-conflicting proposals, and the
:class:`~repro.placement.executor.WaveExecutor` admits up to
``max_concurrent`` of them under the per-node slack-budget ledger.

With ``max_concurrent=1`` (the default) every wave holds at most one
migration at the full setpoint.  At fleet scale, raise
``max_concurrent`` and ``max_streams_per_node`` and use
:meth:`drain`/:meth:`rebalance` — see docs/FLEET.md.
"""

from __future__ import annotations

from typing import Optional

from ..middleware.cluster import SlackerCluster
from ..simulation import PeriodicTicker, Trace
from .budget import SlackBudgetLedger
from .decisions import DrainReport, PlacementDecision, PlacementStats
from .executor import WaveExecutor, WavePlanner
from .monitor import LoadMonitor
from .policy import (
    GreedyReliefChooser,
    HotspotDetector,
    LatencyHotspotDetector,
    PlacementChooser,
)

__all__ = [
    "DrainReport",
    "PlacementDecision",
    "PlacementStats",
    "PlacementManager",
]


class PlacementManager:
    """Periodically detects hotspots and migrates tenants to fix them."""

    def __init__(
        self,
        cluster: SlackerCluster,
        trace: Trace,
        setpoint: float,
        detector: Optional[HotspotDetector] = None,
        chooser: Optional[PlacementChooser] = None,
        interval: float = 10.0,
        cooldown: float = 30.0,
        max_concurrent: int = 1,
        max_streams_per_node: int = 1,
        ledger: Optional[SlackBudgetLedger] = None,
        obs=None,
    ):
        if setpoint <= 0:
            raise ValueError(f"setpoint must be positive, got {setpoint}")
        self.cluster = cluster
        self.monitor = LoadMonitor(cluster, trace, interval=interval)
        self.setpoint = setpoint
        self.detector = detector or LatencyHotspotDetector(
            latency_threshold=setpoint
        )
        self.chooser = chooser or GreedyReliefChooser()
        self.stats = PlacementStats()
        self.planner = WavePlanner(self.detector, self.chooser)
        self.executor = WaveExecutor(
            cluster,
            setpoint=setpoint,
            stats=self.stats,
            ledger=ledger,
            cooldown=cooldown,
            max_concurrent=max_concurrent,
            max_streams_per_node=max_streams_per_node,
            obs=obs,
        )
        self.obs = obs
        #: Nodes currently being drained: never valid migration targets.
        self._draining: set[str] = set()

    @property
    def ledger(self) -> SlackBudgetLedger:
        """The executor's slack-budget ledger (for audits and tests)."""
        return self.executor.ledger

    def step(self) -> None:
        """One monitor snapshot and at most one wave.

        Snapshots continue while migrations run; tenants in flight and
        nodes that are resting or out of budget are planned around.
        """
        env = self.cluster.env
        loads = self.monitor.snapshot()
        self.stats.snapshots += 1
        excluded = self._draining | set(self.monitor.dead_nodes(loads))
        wave = self.planner.plan(
            loads,
            busy_tenants=self.executor.busy_tenants(),
            busy_nodes=self.executor.blocked_nodes(env.now),
            excluded_targets=excluded,
        )
        self.executor.launch_wave(wave)

    def run(self):
        """Process: the rebalancing loop, one :meth:`step` per interval."""
        ticker = PeriodicTicker(self.cluster.env, self.monitor.interval)
        while True:
            yield ticker.tick()
            self.step()

    # -- fleet verbs -----------------------------------------------------

    def drain(
        self,
        node_name: str,
        setpoint: Optional[float] = None,
        max_stalled_rounds: int = 3,
    ):
        """Process: evacuate every tenant from ``node_name``.

        Launches budget-bounded waves (cooldowns waived — a drain is
        maintenance, not steady-state rebalancing) until the node's
        registry is empty, re-planning each round around aborts, dead
        targets, and budget pressure.  Gives up after
        ``max_stalled_rounds`` consecutive rounds in which nothing
        could launch and nothing was in flight (no viable targets).
        Returns a :class:`DrainReport`.
        """
        env = self.cluster.env
        node = self.cluster.node(node_name)  # fail fast on unknown nodes
        self._draining.add(node_name)
        start = env.now
        migrations_before = self.stats.migrations
        aborted_before = self.stats.aborted
        stalled_rounds = 0
        try:
            while len(node.registry) and node.alive:
                loads = self.monitor.snapshot()
                self.stats.snapshots += 1
                excluded = self._draining | set(self.monitor.dead_nodes(loads))
                wave = self.planner.plan_drain(
                    node_name,
                    loads,
                    busy_tenants=self.executor.busy_tenants(),
                    excluded_targets=excluded,
                )
                launched = self.executor.launch_wave(
                    wave, respect_cooldown=False, setpoint=setpoint
                )
                if not launched and not self.executor.active_for_node(node_name):
                    stalled_rounds += 1
                    if stalled_rounds >= max_stalled_rounds:
                        break
                else:
                    stalled_rounds = 0
                yield env.timeout(self.monitor.interval)
            # Let in-flight evacuations settle before reporting.
            yield from self.executor.settle()
        finally:
            self._draining.discard(node_name)
        duration = env.now - start
        report = DrainReport(
            node=node_name,
            duration=duration,
            migrations=self.stats.migrations - migrations_before,
            aborted=self.stats.aborted - aborted_before,
            remaining=len(node.registry),
        )
        if self.obs is not None and report.drained:
            self.obs.on_drain_complete(node_name, duration)
        return report

    def rebalance(self, rounds: int = 1):
        """Process: run ``rounds`` detector-driven waves to completion.

        Each round takes a snapshot, launches one wave, and waits for
        it to settle — a one-shot (or N-shot) alternative to the
        open-ended :meth:`run` loop.  Returns the decisions made.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        env = self.cluster.env
        decisions_before = len(self.stats.decisions)
        for _ in range(rounds):
            yield env.timeout(self.monitor.interval)
            self.step()
            yield from self.executor.settle()
        return self.stats.decisions[decisions_before:]
