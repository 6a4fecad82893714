"""Loading experiment configurations from TOML files.

Lets users define custom scenarios without writing Python::

    # myconfig.toml
    preset = "evaluation"      # start from a preset ...
    seed = 7

    [workload]                 # ... and override what differs
    arrival_rate = 5.0
    burst_factor = 2.0

    [tenant]
    data_bytes = 536870912     # 512 MB

    [migration]
    max_rate_mb = 20.0
    chunk_mb = 2.0

Then ``load_config("myconfig.toml")`` or, from the CLI,
``python -m repro run fig5 --config myconfig.toml``.

TOML files need Python 3.11+ (the stdlib :mod:`tomllib`); on 3.10
:func:`load_config` raises :class:`ConfigFileError`, and
:func:`config_from_dict` works on every supported version.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any

from ..resources.units import MB
from .config import CASE_STUDY, EVALUATION, ExperimentConfig

__all__ = ["ConfigFileError", "load_config", "config_from_dict"]

#: Preset names accepted in the ``preset`` key.
PRESETS = {"evaluation": EVALUATION, "case-study": CASE_STUDY}

#: Allowed keys per section (unknown keys are errors, not typos-to-ignore).
_WORKLOAD_KEYS = {
    "arrival_rate",
    "ops_per_txn",
    "mpl",
    "key_distribution",
    "burst_factor",
    "burst_mean_normal",
    "burst_mean_burst",
}
_TENANT_KEYS = {"data_bytes", "buffer_bytes", "row_size"}
_MIGRATION_KEYS = {"max_rate_mb", "chunk_mb"}


class ConfigFileError(Exception):
    """Raised for malformed or unknown configuration content."""


def _check_keys(section: str, mapping: dict, allowed: set[str]) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigFileError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed TOML document."""
    top_allowed = {"preset", "seed", "workload", "tenant", "migration"}
    _check_keys("top level", payload, top_allowed)

    preset_name = payload.get("preset", "evaluation")
    if preset_name not in PRESETS:
        raise ConfigFileError(
            f"unknown preset {preset_name!r}; choose from {sorted(PRESETS)}"
        )
    config = PRESETS[preset_name]

    if "seed" in payload:
        config = config.with_seed(int(payload["seed"]))

    workload_overrides = payload.get("workload", {})
    if workload_overrides:
        _check_keys("workload", workload_overrides, _WORKLOAD_KEYS)
        try:
            config = replace(
                config, workload=replace(config.workload, **workload_overrides)
            )
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"bad [workload] values: {exc}") from exc

    tenant_overrides = payload.get("tenant", {})
    if tenant_overrides:
        _check_keys("tenant", tenant_overrides, _TENANT_KEYS)
        try:
            config = replace(
                config, tenant=replace(config.tenant, **tenant_overrides)
            )
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"bad [tenant] values: {exc}") from exc

    migration_overrides = payload.get("migration", {})
    if migration_overrides:
        _check_keys("migration", migration_overrides, _MIGRATION_KEYS)
        updates = {}
        if "max_rate_mb" in migration_overrides:
            rate = float(migration_overrides["max_rate_mb"])
            if rate <= 0:
                raise ConfigFileError("migration.max_rate_mb must be positive")
            updates["max_migration_rate"] = rate * MB
        if "chunk_mb" in migration_overrides:
            chunk = float(migration_overrides["chunk_mb"])
            if chunk <= 0:
                raise ConfigFileError("migration.chunk_mb must be positive")
            updates["chunk_bytes"] = int(chunk * MB)
        config = replace(config, **updates)

    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a TOML file."""
    try:
        import tomllib
    except ModuleNotFoundError:
        raise ConfigFileError(
            "TOML config files need Python 3.11+ (no tomllib on "
            "this interpreter)"
        ) from None
    path = Path(path)
    try:
        payload = tomllib.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigFileError(f"no such config file: {path}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    return config_from_dict(payload)
