"""Compact, picklable result records for parallel sweeps.

A sweep worker runs one full simulation and must ship its results back
to the parent process.  Pickling the live :class:`~repro.experiments.harness.ExperimentOutcome`
is impossible (migration results hold the target engine, whose server
holds running generator processes) and wasteful (the full
:class:`~repro.simulation.trace.Trace` carries every series the run
recorded).  :class:`PointRecord` keeps exactly what the figure drivers
consume — the measured latency/throttle series plus scalar summaries —
in plain dataclasses of floats, lists, and strings, so it pickles
compactly and hashes deterministically for the result cache.

``PointRecord`` mirrors the query API of ``ExperimentOutcome``
(``mean_latency``, ``latency_percentile``, ``tenants[i].latency`` ...),
so a driver ported onto the sweep runner keeps its downstream code
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..experiments.harness import ExperimentOutcome, MigrationSpec, PooledLatencyStats
from ..core.config import ExperimentConfig
from ..obs import RunReport
from ..simulation import Series

__all__ = ["MigrationRecord", "TenantRecord", "PointRecord"]


@dataclass(frozen=True)
class MigrationRecord:
    """Scalar summary of a migration result, detached from the engines."""

    #: The result's ``method``: "live", "fluid", "on-demand",
    #: "file-copy" (stop-and-copy), or "dump-reimport".
    kind: str
    #: End-to-end migration time, seconds.
    duration: float
    #: Freeze/handover window (live) or the whole copy (stop-and-copy).
    downtime: float
    #: Bytes moved end to end (snapshot + deltas, or the full copy).
    total_bytes: int
    #: Mean transfer rate over the whole migration, bytes/second.
    average_rate: float
    #: Live-migration detail: snapshot volume and delta-round count.
    snapshot_bytes: int = 0
    delta_rounds: int = 0
    #: Fluid-migration detail: chunk count and summed freeze time.
    num_chunks: int = 0
    total_freeze_time: float = 0.0
    #: On-demand detail: pages pulled remotely inside transactions.
    remote_fetches: int = 0

    @classmethod
    def from_result(cls, result) -> "MigrationRecord":
        """Summarize any migration-result flavor into plain scalars.

        Every result exposes ``method`` and the four summary fields;
        the method-specific details default to zero where absent.
        """
        return cls(
            kind=result.method,
            duration=result.duration,
            downtime=result.downtime,
            total_bytes=result.total_bytes,
            average_rate=result.average_rate,
            snapshot_bytes=getattr(result, "snapshot_bytes", 0),
            delta_rounds=len(getattr(result, "delta_rounds", ())),
            num_chunks=getattr(result, "num_chunks", 0),
            total_freeze_time=getattr(result, "total_freeze_time", 0.0),
            remote_fetches=getattr(result, "remote_fetches", 0),
        )


@dataclass
class TenantRecord:
    """Per-tenant measurements, structurally matching ``TenantOutcome``."""

    tenant_id: int
    latency: Series
    completed: int

    def window_latencies(self, start: float, end: float) -> list[float]:
        return self.latency.window_values(start, end)


@dataclass
class PointRecord(PooledLatencyStats):
    """One sweep point's results, ready to cross a process boundary."""

    config: ExperimentConfig
    spec: Optional[MigrationSpec]
    tenants: list[TenantRecord]
    window_start: float
    window_end: float
    migration: Optional[MigrationRecord] = None
    throttle_series: Optional[Series] = None
    controller_latency_series: Optional[Series] = None
    #: Task-specific extra measurements (small picklable values only).
    extras: dict = field(default_factory=dict)
    #: Observability snapshot (plain dicts/tuples, pickles compactly)
    #: when the point ran with ``observe=True``.
    run_report: Optional[RunReport] = None

    @property
    def average_migration_rate(self) -> float:
        """Mean transfer rate over the migration, bytes/second."""
        return self.migration.average_rate if self.migration is not None else 0.0

    @classmethod
    def from_outcome(cls, outcome: ExperimentOutcome) -> "PointRecord":
        """Strip an in-process outcome down to its portable essentials."""
        return cls(
            config=outcome.config,
            spec=outcome.spec,
            tenants=[
                TenantRecord(
                    tenant_id=t.tenant_id, latency=t.latency, completed=t.completed
                )
                for t in outcome.tenants
            ],
            window_start=outcome.window_start,
            window_end=outcome.window_end,
            migration=(
                MigrationRecord.from_result(outcome.migration)
                if outcome.migration is not None
                else None
            ),
            throttle_series=outcome.throttle_series,
            controller_latency_series=outcome.controller_latency_series,
            extras=dict(outcome.extras),
            run_report=outcome.run_report,
        )
