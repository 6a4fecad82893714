"""Process-pool sweep runner.

Every figure in the paper is a *sweep*: one full, seed-deterministic
simulation per fixed throttle (Figure 5), per setpoint (Figure 11), or
per design variant (the ablations).  The points are independent — each
builds its own :class:`~repro.simulation.Environment` from its own
:class:`RandomStreams` — so they fan out across worker processes with
no shared state and recombine in deterministic point order, bit-
identical to a serial run.

Usage::

    runner = SweepRunner(jobs=4, cache=ResultCache("results/.sweep-cache"))
    records = runner.run([
        SweepPoint(label="4mb", config=cfg, spec=MigrationSpec.fixed(4 * MB)),
        SweepPoint(label="8mb", config=cfg, spec=MigrationSpec.fixed(8 * MB)),
    ])

Guarantees:

* **Order** — ``run()`` returns one record per point, in the order the
  points were given, regardless of completion order.
* **Serial equivalence** — ``jobs=1`` executes the same task functions
  inline (no pool); results are bit-identical either way, which
  ``tests/test_parallel_runner.py`` asserts.
* **Caching** — with a :class:`~repro.parallel.cache.ResultCache`,
  points whose content key (config, spec, kwargs, code fingerprint)
  already has an entry are served from disk and never re-simulated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool uses resolve_jobs)
    from .pool import WorkerPool

from ..core.config import ExperimentConfig
from ..experiments.harness import MigrationSpec
from .cache import ResultCache, code_fingerprint, point_key
from .tasks import SINGLE_TENANT, execute, execute_batch

__all__ = ["SweepPoint", "SweepRunner", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 -> all cores, floor 1."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


@dataclass(frozen=True)
class SweepPoint:
    """One independent point of a sweep.

    ``task`` is a ``"module:function"`` path (see
    :mod:`repro.parallel.tasks`); ``kwargs`` must be picklable and are
    part of the point's cache identity.
    """

    #: Sweep-local identifier (a throttle rate, a setpoint, a variant
    #: label); used by drivers to key their result maps.
    label: Any
    config: ExperimentConfig
    spec: Optional[MigrationSpec] = None
    task: str = SINGLE_TENANT
    kwargs: dict = field(default_factory=dict)

    def cache_key(self, fingerprint: Optional[str] = None) -> str:
        """Content hash identifying this point's inputs and code version."""
        return point_key(
            self.task, self.config, self.spec, self.kwargs, fingerprint
        )


class SweepRunner:
    """Fan independent sweep points across worker processes.

    ``jobs=1`` (the default) is a strict serial fallback: tasks run in
    this process with no executor, so environments without working
    ``multiprocessing`` lose nothing but speed.  ``jobs=0`` means "all
    cores".

    Passing a warm :class:`~repro.parallel.pool.WorkerPool` makes the
    runner dispatch onto the pool's long-lived executor instead of
    spinning one up per ``run()`` — the pool's worker count wins over
    ``jobs``, and the pool (whose owner controls its lifetime) is never
    shut down here.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        chunksize: Optional[int] = None,
        pool: Optional["WorkerPool"] = None,
    ):
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
        self.cache = cache
        #: Points dispatched per worker round-trip; ``None`` picks
        #: ceil(pending / (workers * 4)) — 4 chunks per worker, enough
        #: slack to absorb uneven point runtimes without rebalancing.
        self.chunksize = chunksize
        #: Optional shared warm pool; ``None`` keeps the historical
        #: executor-per-run behaviour.
        self.pool = pool

    def run(self, points: Sequence[SweepPoint]) -> list[Any]:
        """Execute ``points``, returning their records in point order."""
        points = list(points)
        results: list[Any] = [None] * len(points)

        # Serve cached points first; only the remainder is computed.
        pending: list[int] = []
        keys: dict[int, str] = {}
        if self.cache is not None:
            fingerprint = code_fingerprint()
            for index, point in enumerate(points):
                key = point.cache_key(fingerprint)
                keys[index] = key
                record = self.cache.get(key)
                if record is None:
                    pending.append(index)
                else:
                    results[index] = record
        else:
            pending = list(range(len(points)))

        if not pending:
            return results

        if self.jobs == 1 or len(pending) == 1:
            for index in pending:
                point = points[index]
                results[index] = execute(
                    point.task, point.config, point.spec, point.kwargs
                )
        elif self.pool is not None:
            self._dispatch(self.pool.executor(), points, pending, results)
        else:
            # Only a fan-out loads the executor machinery; jobs=1
            # sweeps never import it.
            from concurrent.futures import ProcessPoolExecutor

            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as executor:
                self._dispatch(executor, points, pending, results)

        if self.cache is not None:
            for index in pending:
                self.cache.put(keys[index], results[index])
        return results

    def _dispatch(self, executor, points, pending, results) -> None:
        """Chunk ``pending`` onto ``executor``; fill ``results`` in place."""
        workers = min(self.jobs, len(pending))
        chunk = self.chunksize or max(1, -(-len(pending) // (workers * 4)))
        batches = []
        for start in range(0, len(pending), chunk):
            block = pending[start : start + chunk]
            items = [
                (
                    points[index].task,
                    points[index].config,
                    points[index].spec,
                    points[index].kwargs,
                )
                for index in block
            ]
            batches.append((block, executor.submit(execute_batch, items)))
        # Collect by submission index: deterministic result order no
        # matter which worker finishes first.
        for block, future in batches:
            for index, record in zip(block, future.result()):
                results[index] = record

    def run_labelled(self, points: Sequence[SweepPoint]) -> dict:
        """Like :meth:`run`, keyed by each point's ``label``."""
        points = list(points)
        return {
            point.label: record
            for point, record in zip(points, self.run(points))
        }
