"""Shared fixtures for the test suite, and its hypothesis profiles."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.db.engine import DatabaseEngine
from repro.db.pages import TableLayout
from repro.resources.server import Server
from repro.resources.units import MB
from repro.simulation import Environment, RandomStreams

# The gating suite draws the same examples on every run, so no property
# test can pass on one run and fail on the next; random search runs
# under HYPOTHESIS_PROFILE=explore, in a CI job that does not gate.
# Each test keeps its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def rng() -> random.Random:
    """A seeded stdlib RNG."""
    return random.Random(99)


@pytest.fixture
def server(env, streams) -> Server:
    """A default server."""
    return Server(env, "test-server", streams=streams)


@pytest.fixture
def small_layout() -> TableLayout:
    """A 16 MB table layout (fast to migrate/scan)."""
    return TableLayout.for_data_size(16 * MB)


@pytest.fixture
def engine(env, server, small_layout) -> DatabaseEngine:
    """A small tenant engine with a 2 MB buffer pool."""
    return DatabaseEngine(
        env, server, small_layout, name="tenant-t", buffer_bytes=2 * MB
    )


def run_process(env: Environment, generator):
    """Run ``generator`` as a process to completion; return its value."""
    proc = env.process(generator)
    return env.run(until=proc)
