"""Slacker: latency-aware live migration for multitenant databases.

A from-scratch Python reproduction of Barker et al., '"Cut Me Some
Slack": Latency-Aware Live Migration for Databases' (EDBT 2012).

The package layers, bottom-up:

* :mod:`repro.simulation` — a process-based discrete-event kernel;
* :mod:`repro.resources` — disk/CPU/network/server hardware models;
* :mod:`repro.db` — an InnoDB-like tenant engine with hot backup;
* :mod:`repro.workload` — the transactional YCSB-style benchmark;
* :mod:`repro.control` — PID controllers and tuning;
* :mod:`repro.migration` — throttle, slack model, stop-and-copy and
  live migration, and the PID-driven dynamic throttle;
* :mod:`repro.middleware` — tenant management, wire protocol, nodes,
  frontend, and cluster orchestration;
* :mod:`repro.core` — configuration presets, SLAs, and the
  :class:`~repro.core.slacker.Slacker` facade;
* :mod:`repro.experiments` — drivers regenerating every figure of the
  paper's evaluation;
* :mod:`repro.analysis` — summary statistics and result tables.

Quickstart::

    from repro import Slacker, EVALUATION

    slacker = Slacker(EVALUATION, nodes=["db-01", "db-02"])
    slacker.add_tenant(1, node="db-01", workload=True)
    slacker.advance(20.0)                       # warm up
    result = slacker.migrate(1, "db-02", setpoint=1.0)
    print(result.duration, result.downtime)

The public names below resolve on first access, so ``import
repro.simulation`` or ``python -m repro.lint`` loads only the layers it
uses, not the whole simulator.
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = [
    "CASE_STUDY",
    "EVALUATION",
    "ExperimentConfig",
    "LatencySla",
    "LiveMigration",
    "LiveMigrationResult",
    "MigrationPhase",
    "Slacker",
    "SlaMonitor",
    "TenantConfig",
    "Throttle",
    "WorkloadConfig",
    "__version__",
]

#: Public name -> module that defines it, relative to this package.
_EXPORTS = {
    "CASE_STUDY": ".core.config",
    "EVALUATION": ".core.config",
    "ExperimentConfig": ".core.config",
    "TenantConfig": ".core.config",
    "WorkloadConfig": ".core.config",
    "LatencySla": ".core.sla",
    "SlaMonitor": ".core.sla",
    "Slacker": ".core.slacker",
    "LiveMigration": ".migration.live",
    "LiveMigrationResult": ".migration.live",
    "MigrationPhase": ".migration.live",
    "Throttle": ".migration.throttle",
}


def __getattr__(name: str):
    """Resolve a public name on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
