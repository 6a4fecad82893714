"""Experiment drivers: one module per paper figure, plus the shared harness.

The registry maps each experiment id (the paper's figure/section
number) to the module whose ``run()`` regenerates it; see DESIGN.md for
the full index and EXPERIMENTS.md for paper-vs-measured results.

The drivers are imported on first access to ``REGISTRY`` or to a
driver module's name, so code that needs only the harness (the
``Slacker`` facade, a single run) never loads the nine figure drivers.
"""

from importlib import import_module

from .common import DEFAULT_SCALE, scaled_config
from .harness import (
    ExperimentOutcome,
    MigrationSpec,
    RateChange,
    TenantOutcome,
    attach_workload,
    run_multi_tenant,
    run_single_tenant,
)

#: Experiment id -> name of the driver module with a ``run()`` entry
#: point; ``REGISTRY`` maps the same ids to the imported modules.
_DRIVERS = {
    "fig5": "fig5_throttle_sweep",
    "fig6": "fig6_overload",
    "fig7": "fig7_tradeoff",
    "fig11": "fig11_setpoint_sweep",
    "fig12": "fig12_timeseries",
    "fig13a": "fig13a_dynamic_workload",
    "fig13b": "fig13b_multitenant",
    "stop-and-copy": "stop_and_copy_downtime",
    "ext-source-target": "ext_source_target",
}

__all__ = [
    "DEFAULT_SCALE",
    "ExperimentOutcome",
    "MigrationSpec",
    "RateChange",
    "REGISTRY",
    "TenantOutcome",
    "attach_workload",
    "run_multi_tenant",
    "run_single_tenant",
    "scaled_config",
]


def __getattr__(name: str):
    """Import the drivers on first access (PEP 562)."""
    if name == "REGISTRY":
        registry = {
            eid: import_module(f".{module}", __name__)
            for eid, module in _DRIVERS.items()
        }
        globals()["REGISTRY"] = registry
        return registry
    if name in _DRIVERS.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
