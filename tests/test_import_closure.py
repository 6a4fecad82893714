"""Import-closure guard: an entry point loads only the layers it runs.

Each case imports one entry point in a fresh interpreter and inspects
``sys.modules`` there, so the result does not depend on what this test
process has already imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Directory holding the ``repro`` package under test.
SRC = str(Path(repro.__file__).resolve().parents[1])

#: The nine figure drivers behind ``repro.experiments.REGISTRY``.
DRIVERS = (
    "repro.experiments.ext_source_target",
    "repro.experiments.fig5_throttle_sweep",
    "repro.experiments.fig6_overload",
    "repro.experiments.fig7_tradeoff",
    "repro.experiments.fig11_setpoint_sweep",
    "repro.experiments.fig12_timeseries",
    "repro.experiments.fig13a_dynamic_workload",
    "repro.experiments.fig13b_multitenant",
    "repro.experiments.stop_and_copy_downtime",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``repro`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    out = run_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(out.splitlines()[-1]))


class TestImportClosure:
    def test_harness_loads_no_pool_toml_or_drivers(self):
        loaded = modules_after("import repro.experiments.harness")
        assert "repro.experiments.harness" in loaded
        heavy = {"multiprocessing", "concurrent.futures", "tomllib", *DRIVERS}
        assert sorted(loaded & heavy) == []

    def test_lint_loads_no_experiments_or_middleware(self):
        loaded = modules_after("import repro.lint")
        assert sorted(
            m for m in loaded
            if m.startswith(("repro.experiments", "repro.middleware"))
        ) == []

    def test_simulation_loads_no_experiments_or_middleware(self):
        loaded = modules_after("import repro.simulation")
        assert sorted(
            m for m in loaded
            if m.startswith(("repro.experiments", "repro.middleware"))
        ) == []

    def test_public_names_resolve_on_first_access(self):
        loaded = modules_after(
            "import repro\n"
            "assert 'repro.core' not in sys.modules\n"
            "from repro import Slacker, EVALUATION\n"
            "from repro.experiments import REGISTRY, fig5_throttle_sweep\n"
            "assert REGISTRY['fig5'] is fig5_throttle_sweep\n"
            "assert all(hasattr(repro, name) for name in repro.__all__)"
        )
        assert set(DRIVERS) <= loaded


class TestConfigFileWithoutTomllib:
    def test_import_works_and_load_config_names_the_python_floor(self):
        out = run_fresh(
            "import sys\n"
            "sys.modules['tomllib'] = None\n"
            "import repro\n"
            "from repro.core.configfile import ConfigFileError, load_config\n"
            "try:\n"
            "    load_config('any.toml')\n"
            "except ConfigFileError as exc:\n"
            "    print(exc)\n"
        )
        assert "Python 3.11+" in out
