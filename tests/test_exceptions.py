"""Every ``repro`` exception survives a trip across a process boundary.

Sweep points run in worker processes; an exception that cannot be
unpickled in the parent turns one failed point into a
``BrokenProcessPool`` that kills the whole sweep.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.configfile import ConfigFileError
from repro.middleware.admin import AdminError
from repro.middleware.protocol import ProtocolError
from repro.middleware.transport import DeliveryError
from repro.migration.live import MigrationAborted
from repro.simulation import Interrupt, SimulationError, StopSimulation

CASES = [
    (ConfigFileError("unknown key(s) in [tenant]: foo"), ()),
    (MigrationAborted("lease expired"), ("reason",)),
    (ProtocolError("unknown message id 99"), ()),
    (AdminError("unknown verb 'frobnicate'"), ()),
    (
        DeliveryError("node-a", "node-b", "drop", True),
        ("sender", "recipient", "reason", "delivered_unknown"),
    ),
    (Interrupt({"why": "lease"}), ("cause",)),
    (SimulationError("no scheduled events"), ()),
    (StopSimulation(), ()),
]


@pytest.mark.parametrize(
    "exc, attrs", CASES, ids=[type(exc).__name__ for exc, _ in CASES]
)
def test_exception_round_trips_through_pickle(exc, attrs):
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert clone.args == exc.args
    assert str(clone) == str(exc)
    for attr in attrs:
        assert getattr(clone, attr) == getattr(exc, attr)
