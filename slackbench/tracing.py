"""Per-layer read-out: profiled self time and counts at layer boundaries.

The traced run profiles the driver call with :mod:`cProfile`, a
deterministic profiler: every function call is recorded with its
caller, held in memory, and written out (``pstats`` format) when the
benchmark ends.  Self time is rolled up to the ``repro`` package that
owns each function.  A C builtin's self time goes to the layer of the
``repro`` function that called it; stdlib Python code (``random``
above all) and builtins called from it go to ``other``.

Counts come from the profiler's call counts at two public entry points
that are plain functions (``Resource.request``,
``VelocityPidController.update``) and from the layers' public stats
objects, read after the run.  Generator entry points such as
``Cpu.execute`` are counted through their stats objects instead,
because the profiler counts each resumption of a generator as a call.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
from typing import Callable

import repro
from repro.control.pid import VelocityPidController
from repro.db.engine import DatabaseEngine
from repro.middleware.cluster import SlackerCluster
from repro.migration.fluid import FluidMigration
from repro.migration.throttle import Throttle
from repro.placement import PlacementManager
from repro.resources.server import Server
from repro.simulation import Environment
from repro.simulation.resources import Resource
from repro.workload.client import BenchmarkClient

from workloads import Observed

#: Self-time buckets, one per ``repro`` layer plus ``other``.
LAYERS = (
    "simulation.core",
    "simulation.resources",
    "resources",
    "db",
    "workload",
    "migration",
    "control",
    "middleware",
    "placement",
    "experiments",
    "other",
)

#: The layer self times must sum to the profiler's own total within
#: this relative tolerance: the rollup drops and double-counts nothing.
RECONCILE_TOLERANCE = 1e-6

#: Units of the counts that are not plain counts.
UNITS = {
    "resources.disk.busy_s": "s",
    "resources.disk.queue_s": "s",
    "resources.network.bytes_sent": "B",
    "db.bp_hit_ratio": "ratio",
    "db.cpu_holds_per_op": "ratio",
    "migration.bytes_copied": "B",
    "middleware.bytes_on_wire": "B",
    "placement.budget_peak": "share",
}

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str | None:
    """The layer owning a source file; ``None`` outside ``repro``."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    parts = filename[len(_PACKAGE_ROOT) :].split(os.sep)
    if parts[0] == "simulation":
        return "simulation.resources" if parts[1:] == ["resources.py"] else "simulation.core"
    return parts[0] if parts[0] in LAYERS else "other"


def rollup(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, callers) in stats.stats.items():
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tottime
            continue
        if filename == "~":
            attributed = 0.0
            for (caller_file, _, _), (_, _, caller_tt, _) in callers.items():
                caller_layer = layer_of(caller_file)
                if caller_layer is not None:
                    self_s[caller_layer] += caller_tt
                    attributed += caller_tt
            self_s["other"] += tottime - attributed
        else:
            self_s["other"] += tottime
    return self_s


def call_count(stats: pstats.Stats, function: Callable) -> int:
    code = function.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry is not None else 0


@contextlib.contextmanager
def profiling(profiler: cProfile.Profile):
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def stats_counts(obs: Observed) -> dict[str, float]:
    """Per-layer counts from the public stats objects of one run."""
    envs = obs.of(Environment)
    servers = obs.of(Server)
    engines = obs.of(DatabaseEngine)
    clients = obs.of(BenchmarkClient)
    throttles = obs.of(Throttle)
    fluid = obs.of(FluidMigration)
    routers = [m.router for m in fluid]
    managers = obs.of(PlacementManager)
    buses = [c.bus.counters() for c in obs.of(SlackerCluster)]

    ops = sum(e.stats.operations for e in engines)
    bursts = sum(s.cpu.stats.bursts for s in servers)
    hits = sum(e.buffer_pool.stats.hits for e in engines)
    misses = sum(e.buffer_pool.stats.misses for e in engines)
    return {
        "simulation.core.events": sum(e.processed_events for e in envs),
        "simulation.core.elided_events": sum(e.elided_events for e in envs),
        "resources.cpu.bursts": bursts,
        "resources.disk.random_reads": sum(s.disk.stats.random_reads for s in servers),
        "resources.disk.sequential_reads": sum(
            s.disk.stats.sequential_reads for s in servers
        ),
        "resources.disk.busy_s": sum(s.disk.stats.busy_time for s in servers),
        "resources.disk.queue_s": sum(s.disk.stats.queue_time for s in servers),
        "resources.network.bytes_sent": sum(
            s.nic_out.stats.bytes_sent for s in servers
        ),
        "db.ops": ops,
        "db.txns": sum(e.stats.committed for e in engines),
        "db.bp_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "db.bp_misses": misses,
        "db.bp_evictions": sum(e.buffer_pool.stats.evictions for e in engines),
        "db.log_flushes": sum(e.stats.log_flushes for e in engines),
        "db.cpu_holds_per_op": bursts / ops if ops else 0.0,
        "workload.txns_arrived": sum(c.stats.arrived for c in clients),
        "workload.peak_queue": max((c.stats.peak_queue_length for c in clients), default=0),
        "migration.bytes_copied": sum(t.stats.bytes_granted for t in throttles),
        "migration.throttle.grants": sum(t.stats.grants for t in throttles),
        "migration.throttle.rate_changes": sum(t.stats.rate_changes for t in throttles),
        "migration.fluid.txns_routed": sum(r.txns_routed for r in routers),
        "migration.fluid.cross_hops": sum(r.cross_hops for r in routers),
        "migration.fluid.flips": sum(m.chunk_map.flips for m in fluid),
        "migration.fluid.writes_blocked": sum(r.writes_blocked for r in routers),
        "middleware.messages_delivered": sum(b["messages_delivered"] for b in buses),
        "middleware.bytes_on_wire": sum(b["bytes_on_wire"] for b in buses),
        "middleware.send_failed": sum(b["send_failures"] for b in buses),
        "middleware.retries": sum(b["send_retries"] for b in buses),
        "placement.waves": sum(m.stats.waves for m in managers),
        "placement.migrations": sum(m.stats.migrations for m in managers),
        "placement.aborted": sum(m.stats.aborted for m in managers),
        "placement.budget_peak": max((m.ledger.peak_used for m in managers), default=0.0),
    }


def profile_counts(stats: pstats.Stats) -> dict[str, int]:
    """Per-layer counts from the profiler at plain-function entry points."""
    return {
        "simulation.resources.requests": call_count(stats, Resource.request),
        "control.pid_updates": call_count(stats, VelocityPidController.update),
    }
