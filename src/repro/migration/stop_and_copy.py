"""Stop-and-copy migration (the paper's Section 2.3.1 baseline).

Two variants, both of which incur downtime proportional to database
size (which is why the paper abandons them for live migration):

* **file-level copy** — Slacker's optimized variant: acquire a global
  read lock, copy the tenant's data directory byte-for-byte, start a
  new daemon on the target pointing at the copied directory.  No
  export/import cost because "the data stays in the internal format
  used by MySQL".
* **dump-and-reimport** — the naive ``mysqldump`` pipeline: export all
  data as SQL, ship it, re-execute it on the target.  "This approach is
  very slow ... largely due to the overhead of reimporting the data".

Either can be aborted until its copy is done (the source thaws and
keeps the tenant); the handover after the copy is the point of no
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES
from ..db.engine import DatabaseEngine, FreezeMode
from ..resources.server import Server
from ..resources.units import PAGE_SIZE
from ..simulation import Environment, Interrupt
from .live import AbortBeforeCommit, MigrationAborted
from .throttle import Throttle

__all__ = ["StopAndCopyResult", "StopAndCopyMigration", "DumpReimportMigration"]


@dataclass
class StopAndCopyResult:
    """Outcome of a stop-and-copy migration."""

    #: "file-copy" or "dump-reimport".
    method: str
    started_at: float
    finished_at: float
    bytes_copied: int
    target: DatabaseEngine

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def downtime(self) -> float:
        """The tenant is down for the entire copy: downtime == duration."""
        return self.duration

    @property
    def total_bytes(self) -> int:
        return self.bytes_copied

    @property
    def average_rate(self) -> float:
        """Mean copy rate, bytes/second."""
        return self.bytes_copied / self.duration if self.duration > 0 else 0.0


class StopAndCopyMigration(AbortBeforeCommit):
    """File-level stop-and-copy of one tenant to a target server."""

    method = "file-copy"

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle: Optional[Throttle] = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
    ):
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        self.source = source
        self.target_server = target_server
        self.throttle = throttle
        self.chunk_bytes = chunk_bytes
        self.on_handover = on_handover

    def _make_target(self) -> DatabaseEngine:
        return DatabaseEngine(
            self.env,
            self.target_server,
            self.source.layout,
            name=f"{self.source.name}@{self.target_server.name}",
            buffer_bytes=self.source.buffer_pool.capacity_pages
            * self.source.buffer_pool.page_size,
            costs=self.source.costs,
        )

    def _ship_chunk(self, size: int, stream: str) -> Generator:
        """Read one chunk on the source, wire it over, write it down."""
        if self.throttle is not None:
            yield from self.throttle.acquire(size)
        yield from self.source.server.disk.read(size, sequential=True, stream=stream)
        yield from self.source.server.nic_out.transfer(size)
        yield from self.target_server.disk.write(size, sequential=True, stream=stream)

    def run(self) -> Generator:
        """Process: perform the migration; returns a result record."""
        self._process = self.env.active_process
        started_at = self.env.now
        self._check_abort()
        self.source.freeze(FreezeMode.ALL)
        total = self.source.data_bytes
        copied = 0
        stream = f"{self.source.name}:stop-and-copy"
        try:
            yield self.source.write_quiesced()
            while copied < total:
                size = min(self.chunk_bytes, total - copied)
                yield from self._ship_chunk(size, stream)
                copied += size
        except Interrupt:
            # The partial copy is discarded; the source keeps the tenant.
            self.source.thaw()
            raise MigrationAborted(self._abort_reason) from None

        self.committed = True
        target = self._make_target()
        # The copied files are already current: no writes ran since the
        # freeze, so the target starts at the source's exact LSN.
        target.replicated_lsn = self.source.binlog.head_lsn
        target.data_version = self.source.data_version
        if self.on_handover is not None:
            self.on_handover(target)
        self.source.stop(successor=target)
        return StopAndCopyResult(
            method=self.method,
            started_at=started_at,
            finished_at=self.env.now,
            bytes_copied=copied,
            target=target,
        )


class DumpReimportMigration(StopAndCopyMigration):
    """Naive mysqldump stop-and-copy: export, ship, re-import.

    The re-import re-executes every row insert on the target: a CPU
    burst plus page write per row batch, which dominates the cost
    exactly as reported in the paper and in Elmore et al.'s
    measurements.
    """

    method = "dump-reimport"

    #: Rows re-inserted per batched import statement.
    import_batch_rows = 64

    def _ship_chunk(self, size: int, stream: str) -> Generator:
        yield from super()._ship_chunk(size, stream)
        # Re-import: re-execute the inserts carried by this chunk.
        rows = max(1, size // self.source.layout.row_size)
        batches = -(-rows // self.import_batch_rows)  # ceil division
        for _ in range(batches):
            yield from self.target_server.cpu.execute(
                self.source.costs.cpu_per_op + self.source.costs.cpu_per_write
            )
            yield from self.target_server.disk.write(PAGE_SIZE)
