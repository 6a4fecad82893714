"""Lint configuration, optionally loaded from ``[tool.repro.lint]``.

``pyproject.toml`` may carry::

    [tool.repro.lint]
    disable = ["SLK004"]
    wall_clock_allow = ["scripts/"]
    units_scope = ["src/repro"]
    worker_scope = ["repro/parallel/"]

On Python 3.11+ the stdlib :mod:`tomllib` parses the file; on 3.10,
where tomllib does not exist and this repo adds no third-party
dependencies, a minimal line-based parser handles the small subset of
TOML the lint table uses (strings and lists of strings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 only
    tomllib = None  # type: ignore[assignment]

__all__ = ["LintConfig", "load_pyproject_config", "parse_lint_table"]


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter settings."""

    #: Rule ids disabled everywhere (e.g. ``("SLK004",)``).
    disable: tuple[str, ...] = ()
    #: Path prefixes (posix, relative) where wall-clock calls are allowed.
    wall_clock_allow: tuple[str, ...] = ("scripts/",)
    #: Path prefixes the raw-byte-literal rule (SLK006) is limited to;
    #: empty means "everywhere".
    units_scope: tuple[str, ...] = ()
    #: Path prefixes holding code reachable from sweep-worker entry
    #: points, where the shared-module-state rule (SLK008) applies;
    #: empty disables the rule.
    worker_scope: tuple[str, ...] = ("repro/parallel/",)
    #: Path prefixes where the bounded-retry rule (SLK009) applies;
    #: empty disables the rule.
    retry_scope: tuple[str, ...] = ("repro/",)
    #: Path prefixes where the metric/span naming rule (SLK010) applies;
    #: empty disables the rule.
    obs_scope: tuple[str, ...] = ("repro/", "scripts/")
    #: Path prefixes holding simulation code whose generator processes
    #: must not reach OS-blocking/wall-clock calls (SLK101); empty
    #: disables the rule.
    sim_scope: tuple[str, ...] = ("repro/",)
    #: Path prefixes exempt from SLK101 even inside ``sim_scope`` (the
    #: linter itself walks the filesystem, not the simulation).
    sim_exclude: tuple[str, ...] = ("repro/lint/",)
    #: Path prefixes where the units-flow dataflow rule (SLK104)
    #: applies; empty disables the rule.
    units_flow_scope: tuple[str, ...] = ("repro/",)
    #: Fully-qualified module holding the registered metric/span name
    #: constants SLK105 resolves against.
    obs_names_module: str = "repro.obs.names"
    #: Substrings marking a function as a message-dispatch loop for the
    #: protocol-exhaustiveness rule (SLK102).
    dispatch_markers: tuple[str, ...] = ("dispatch",)
    #: Path prefixes where migrations must be launched through the wave
    #: executor's budget ledger, never ``node.migrate_tenant`` directly
    #: (SLK106); empty disables the rule.
    placement_scope: tuple[str, ...] = ("repro/placement/",)
    #: Path prefixes inside ``placement_scope`` that ARE the launch
    #: path (the executor itself) and may call the node verbs.
    placement_launch_allow: tuple[str, ...] = ("repro/placement/executor.py",)
    #: Path prefixes where migration-protocol frames must carry their
    #: fencing token: any construction of a token-bearing registered
    #: message must pass ``token=`` explicitly (SLK107); empty disables
    #: the rule.
    fencing_scope: tuple[str, ...] = ("repro/middleware/", "repro/migration/")
    #: Path prefixes (hot, tick-dominated scopes) where eager periodic
    #: timeout loops must use the coalesced timer API (SLK011); empty
    #: disables the rule.
    periodic_scope: tuple[str, ...] = (
        "repro/middleware/",
        "repro/migration/",
        "repro/placement/",
        "repro/obs/",
    )

    def with_extra_disabled(self, rule_ids: tuple[str, ...]) -> "LintConfig":
        merged = tuple(dict.fromkeys(self.disable + rule_ids))
        return replace(self, disable=merged)


def _config_from_table(table: dict) -> LintConfig:
    def _str_tuple(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        value = table.get(key)
        if value is None:
            return default
        if isinstance(value, str):
            value = [value]
        return tuple(str(v) for v in value)

    defaults = LintConfig()
    obs_names_module = table.get("obs_names_module")
    return LintConfig(
        disable=_str_tuple("disable", defaults.disable),
        wall_clock_allow=_str_tuple("wall_clock_allow", defaults.wall_clock_allow),
        units_scope=_str_tuple("units_scope", defaults.units_scope),
        worker_scope=_str_tuple("worker_scope", defaults.worker_scope),
        retry_scope=_str_tuple("retry_scope", defaults.retry_scope),
        obs_scope=_str_tuple("obs_scope", defaults.obs_scope),
        sim_scope=_str_tuple("sim_scope", defaults.sim_scope),
        sim_exclude=_str_tuple("sim_exclude", defaults.sim_exclude),
        units_flow_scope=_str_tuple("units_flow_scope", defaults.units_flow_scope),
        obs_names_module=(
            str(obs_names_module)
            if obs_names_module is not None
            else defaults.obs_names_module
        ),
        dispatch_markers=_str_tuple("dispatch_markers", defaults.dispatch_markers),
        placement_scope=_str_tuple("placement_scope", defaults.placement_scope),
        placement_launch_allow=_str_tuple(
            "placement_launch_allow", defaults.placement_launch_allow
        ),
        fencing_scope=_str_tuple("fencing_scope", defaults.fencing_scope),
        periodic_scope=_str_tuple("periodic_scope", defaults.periodic_scope),
    )


#: ``key = "value"`` or ``key = ["a", "b"]`` within the lint table.
_KV_RE = re.compile(r"^\s*([A-Za-z0-9_-]+)\s*=\s*(.+?)\s*$")
_SECTION_RE = re.compile(r"^\s*\[(.+?)\]\s*$")


def parse_lint_table(text: str) -> dict:
    """Tiny fallback parser for the ``[tool.repro.lint]`` table.

    Handles only what the lint config needs — bare strings and flat
    lists of strings — so 3.10 (no :mod:`tomllib`) still works without
    adding a dependency.
    """
    table: dict = {}
    in_section = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        section = _SECTION_RE.match(line)
        if section:
            in_section = section.group(1).strip() == "tool.repro.lint"
            continue
        if not in_section:
            continue
        kv = _KV_RE.match(line)
        if not kv:
            continue
        key, value = kv.group(1), kv.group(2)
        if value.startswith("[") and value.endswith("]"):
            items = re.findall(r"""["']([^"']*)["']""", value)
            table[key] = items
        elif value[:1] in "\"'" and value[-1:] in "\"'":
            table[key] = value[1:-1]
    return table


def load_pyproject_config(path: str | Path = "pyproject.toml") -> Optional[LintConfig]:
    """Load ``[tool.repro.lint]`` from ``path``; None if absent."""
    path = Path(path)
    if not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError:
            return None
        table = data.get("tool", {}).get("repro", {}).get("lint")
    else:  # pragma: no cover - 3.10 fallback
        table = parse_lint_table(text) or None
    if table is None:
        return None
    return _config_from_table(table)


def find_pyproject(start: str | Path = ".") -> Optional[Path]:
    """Walk up from ``start`` looking for a pyproject.toml."""
    current = Path(start).resolve()
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
