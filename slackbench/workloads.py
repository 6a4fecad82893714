"""The three benchmark workloads, built only through the public drivers.

Each workload is a list of simulations, one per sub-seed, driven by
``run_single_tenant`` or ``fleet_sweep.fleet_point`` exactly as the
figure drivers call them: ``jobs=1``, no worker pool, observability off,
no faults.  The benchmark reaches the layers from outside: it records
the public objects a run constructs (``Observed``) and reads their
stats objects after the run, and it times set-up as the host time from
the driver call to the first ``Environment.run``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import CASE_STUDY
from repro.db.engine import DatabaseEngine
from repro.experiments import fleet_sweep
from repro.experiments.common import scaled_config
from repro.experiments.harness import MigrationSpec, run_single_tenant
from repro.middleware.cluster import SlackerCluster
from repro.migration.fluid import FluidMigration, FluidPhase, check_fluid_invariants
from repro.migration.live import LiveMigrationResult
from repro.migration.throttle import Throttle
from repro.parallel.record import PointRecord
from repro.placement import PlacementManager
from repro.resources.server import Server
from repro.resources.units import MB
from repro.simulation import Environment
from repro.workload.client import BenchmarkClient

#: The paper's case-study SLA bound on transaction latency (section 3.2).
SLA_BOUND_S = 0.5

#: Simulated seconds a finished run keeps going, arrivals stopped, so
#: that transactions still in flight when the driver returns can
#: complete.  Whatever is still unfinished after it counts as failed.
DRAIN_S = 60.0

#: Classes whose instances a run's read-out needs.
OBSERVED_CLASSES = (
    Environment,
    SlackerCluster,
    Server,
    DatabaseEngine,
    BenchmarkClient,
    Throttle,
    FluidMigration,
    PlacementManager,
)


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` of a set-up-only run."""


class Observed:
    """Records the public objects constructed inside a ``with`` block.

    Each observed class gets a wrapped ``__init__`` for the duration of
    the block, and ``Environment.run`` is wrapped to stamp the host
    clock at its first call: everything before it is set-up.  With
    ``setup_only`` the wrapper raises :class:`SetupDone` there instead
    of running.  The wrappers add one Python call per constructed
    object and per ``run`` call; they never touch the simulated
    trajectory.
    """

    def __init__(self, setup_only: bool = False) -> None:
        self.objects: dict[type, list] = {cls: [] for cls in OBSERVED_CLASSES}
        #: Host clock when the workload called its driver, and when the
        #: driver first ran the simulation.
        self.driver_called_at: Optional[float] = None
        self.run_started_at: Optional[float] = None
        self.setup_only = setup_only
        self._saved: list[tuple[type, str, object]] = []

    def of(self, cls: type) -> list:
        return self.objects[cls]

    def __enter__(self) -> "Observed":
        for cls in OBSERVED_CLASSES:
            self._wrap_init(cls)
        original_run = Environment.__dict__["run"]
        observed = self

        def run(env, *args, **kwargs):
            if observed.run_started_at is None:
                observed.run_started_at = time.perf_counter()
                if observed.setup_only:
                    raise SetupDone
            return original_run(env, *args, **kwargs)

        self._saved.append((Environment, "run", original_run))
        Environment.run = run
        return self

    def _wrap_init(self, cls: type) -> None:
        original = cls.__dict__["__init__"]
        seen = self.objects[cls]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            seen.append(obj)

        self._saved.append((cls, "__init__", original))
        cls.__init__ = __init__

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


@dataclass
class SimResult:
    """What one simulation of one sub-seed yields."""

    seed: int
    setup_s: float
    host_s: float
    #: Simulated seconds advanced by the driver call.
    sim_s: float
    #: Transaction latencies in the measurement window, seconds.
    latencies: list[float]
    #: Migration window (single tenant) or time to drain (fleet), s.
    migration_s: float
    #: Longest handover freeze of any migration in the run, s.
    downtime_s: float
    events: int
    elided_events: int
    fingerprint: str
    violations: list[str]
    arrived: int = 0
    #: Arrived but never completed, even after the drain.
    unfinished: int = 0

    def sim_metrics(self) -> tuple:
        """Everything simulated; must repeat exactly for one seed."""
        return (
            self.fingerprint,
            self.sim_s,
            len(self.latencies),
            self.migration_s,
            self.downtime_s,
            self.arrived,
            self.unfinished,
            self.events,
            self.elided_events,
        )


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _census_violations(obs: Observed, tenant_id: int, home: str) -> list[str]:
    (cluster,) = obs.of(SlackerCluster)
    hosts = cluster.tenant_census().get(tenant_id, [])
    if hosts != [home]:
        return [f"tenant {tenant_id} hosted on {hosts!r}, expected [{home!r}]"]
    return []


# -- single-tenant workloads ------------------------------------------------


def _single_tenant(spec: MigrationSpec, check: Callable) -> Callable:
    def simulate(seed: int, obs: Observed, around: Callable) -> SimResult:
        config = scaled_config(CASE_STUDY, 1.0, seed)
        with around():
            obs.driver_called_at = time.perf_counter()
            outcome = run_single_tenant(config, spec)
            finished = time.perf_counter()
        (env,) = obs.of(Environment)
        sim_s = env.now
        record = PointRecord.from_outcome(outcome)
        migration = record.migration
        tenant = record.tenants[0]
        fingerprint = _digest(
            migration.duration,
            migration.downtime,
            migration.total_bytes,
            record.window_start,
            record.window_end,
            tuple(tenant.latency.times),
            tuple(tenant.latency.values),
        )
        violations = check(outcome, obs)
        return SimResult(
            seed=seed,
            setup_s=obs.run_started_at - obs.driver_called_at,
            host_s=finished - obs.run_started_at,
            sim_s=sim_s,
            latencies=outcome.pooled_latencies(),
            migration_s=outcome.duration,
            downtime_s=migration.downtime,
            events=env.processed_events,
            elided_events=env.elided_events,
            fingerprint=fingerprint,
            violations=violations,
        )

    return simulate


def _check_live(outcome, obs: Observed) -> list[str]:
    result = outcome.migration
    if not isinstance(result, LiveMigrationResult):
        return [f"expected a completed live migration, got {result!r}"]
    violations = []
    if not result.finished_at > result.started_at:
        violations.append("live migration did not complete")
    return violations + _census_violations(obs, 1, "target")


def _check_fluid(outcome, obs: Observed) -> list[str]:
    migrations = obs.of(FluidMigration)
    if len(migrations) != 1:
        return [f"expected one fluid migration, saw {len(migrations)}"]
    (migration,) = migrations
    # The invariants include zero foreign serves and write conservation
    # across both residents; they also accept an aborted migration,
    # which this workload must not produce.
    violations = check_fluid_invariants(migration)
    if migration.phase is not FluidPhase.COMPLETE:
        violations.append(f"fluid migration ended in phase {migration.phase.value}")
    return violations + _census_violations(obs, 1, "target")


# -- fleet workload -----------------------------------------------------------

FLEET_NODES = 100
FLEET_TENANTS = 1000


def _fleet_drain(seed: int, obs: Observed, around: Callable) -> SimResult:
    (point,) = [
        p
        for p in fleet_sweep.sweep_points(
            nodes=FLEET_NODES, tenants=FLEET_TENANTS, seed=seed
        )
        if p.label == "drain"
    ]
    with around():
        obs.driver_called_at = time.perf_counter()
        record = fleet_sweep.fleet_point(point.config, point.spec, **point.kwargs)
        finished = time.perf_counter()
    (manager,) = obs.of(PlacementManager)
    latencies = [
        value for client in obs.of(BenchmarkClient) for value in client.latencies.values
    ]
    return SimResult(
        seed=seed,
        setup_s=obs.run_started_at - obs.driver_called_at,
        host_s=finished - obs.run_started_at,
        sim_s=record.sim_end,
        latencies=latencies,
        migration_s=record.time_to_drain if record.time_to_drain is not None else 0.0,
        downtime_s=max((d.downtime or 0.0 for d in manager.stats.decisions), default=0.0),
        events=record.events,
        elided_events=record.elided,
        fingerprint=record.fingerprint,
        violations=list(record.violations),
    )


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``simulate(seed, observed, around)``; ``around()`` is entered
    #: around the driver call alone (the traced run profiles it).
    simulate: Callable[[int, Observed, Callable], SimResult]
    #: Simulations per benchmark run, one per sub-seed; latency
    #: percentiles pool their transactions.
    sub_seeds: int
    #: The PID setpoint of a single-tenant migration, if it has one.
    setpoint_s: Optional[float] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slacker-pid",
            _single_tenant(MigrationSpec.dynamic(0.15), _check_live),
            sub_seeds=24,
            setpoint_s=0.15,
        ),
        Workload(
            "fluid-chunks",
            _single_tenant(MigrationSpec.fluid(4 * MB, 16), _check_fluid),
            sub_seeds=24,
        ),
        Workload("fleet-drain", _fleet_drain, sub_seeds=6),
    )
}


def sub_seeds(seed: int, count: int) -> list[int]:
    """The run's simulation seeds: ``seed`` itself, then derived ones."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2**31) for _ in range(count - 1)]


def time_setup(workload: Workload, seed: int) -> float:
    """Host seconds of one set-up alone: the driver call up to its first
    ``Environment.run``, which is refused."""
    gc.collect()
    with Observed(setup_only=True) as obs:
        try:
            workload.simulate(seed, obs, contextlib.nullcontext)
        except SetupDone:
            return obs.run_started_at - obs.driver_called_at
    raise RuntimeError(f"{workload.name} never started its simulation")


def simulate(
    workload: Workload,
    seed: int,
    around: Callable = contextlib.nullcontext,
    before_drain: Optional[Callable[[Observed], None]] = None,
) -> SimResult:
    """One simulation, then the drain that counts unfinished transactions.

    Garbage is collected first, outside the clock.  ``before_drain``
    reads the run's objects while they still hold what the driver call
    did and nothing of the drain.
    """
    gc.collect()
    with Observed() as obs:
        result = workload.simulate(seed, obs, around)
        if before_drain is not None:
            before_drain(obs)
        for env in obs.of(Environment):
            env.run(until=env.now + DRAIN_S)
    clients = obs.of(BenchmarkClient)
    result.arrived = sum(c.stats.arrived for c in clients)
    result.unfinished = sum(c.stats.in_system for c in clients)
    return result
