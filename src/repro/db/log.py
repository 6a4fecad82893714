"""Binary / redo log of a tenant database.

Slacker's delta-updating step "appl[ies] several 'rounds' of deltas
from the source to the target by reading from the MySQL binary query
log of the source tenant" (Section 2.3.2).  This module models that
log: an append-only sequence of records addressed by LSN (log sequence
number, a byte offset), from which byte ranges can be measured and
shipped.

The same structure doubles as the redo stream XtraBackup captures
while snapshotting — the "prepare" phase replays the records that
accumulated between snapshot start and snapshot end.

Every committed write appends a record, and the model only ever does
byte arithmetic on the log, so it is stored as four ``array`` columns
(start LSN, time, txn id, tag), about 32 bytes per record.  A record's
size is implied by the next record's start (or the head for the last
one), since LSNs are contiguous.  :class:`LogRecord` objects are built
only on demand, by :meth:`BinaryLog.records_between`.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass

__all__ = ["LogRecord", "BinaryLog"]


@dataclass(frozen=True)
class LogRecord:
    """One committed write in the binary log, materialised on demand."""

    #: LSN of the *start* of this record (byte offset in the log).
    lsn: int
    #: Encoded size of the record in bytes.
    size: int
    #: Simulated time at which the record was appended.
    time: float
    #: Id of the committing transaction.
    txn_id: int
    #: Owner tag (tenant id in shared-process engines; 0 = untagged).
    tag: int = 0


class BinaryLog:
    """Append-only log with LSN addressing and range queries.

    >>> log = BinaryLog()
    >>> log.append(size=100, time=0.0, txn_id=1)
    100
    >>> log.append(size=50, time=1.0, txn_id=2)
    150
    >>> log.bytes_between(0, log.head_lsn)
    150
    >>> [r.txn_id for r in log.records_between(100, 150)]
    [2]
    """

    def __init__(self):
        # One entry per record, oldest first; record i spans
        # [_starts[i], _starts[i + 1]) (the last one ends at the head).
        self._starts = array("q")
        self._times = array("d")
        self._txn_ids = array("q")
        self._tags = array("q")
        self._head = 0

    @property
    def head_lsn(self) -> int:
        """LSN one past the last byte written (the append position)."""
        return self._head

    @property
    def record_count(self) -> int:
        return len(self._starts)

    def append(self, size: int, time: float, txn_id: int, tag: int = 0) -> int:
        """Append one record; returns the new head LSN."""
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        self._starts.append(self._head)
        self._times.append(time)
        self._txn_ids.append(txn_id)
        self._tags.append(tag)
        self._head += size
        return self._head

    def bytes_between(self, from_lsn: int, to_lsn: int) -> int:
        """Bytes of log in the half-open LSN range [from_lsn, to_lsn)."""
        if from_lsn > to_lsn:
            raise ValueError(f"from_lsn {from_lsn} > to_lsn {to_lsn}")
        return min(to_lsn, self._head) - min(from_lsn, self._head)

    def _index_range(self, from_lsn: int, to_lsn: int) -> tuple[int, int]:
        """Indices of the records whose start LSN lies in [from_lsn, to_lsn)."""
        if from_lsn > to_lsn:
            raise ValueError(f"from_lsn {from_lsn} > to_lsn {to_lsn}")
        starts = self._starts
        return (
            bisect.bisect_left(starts, from_lsn),
            bisect.bisect_left(starts, to_lsn),
        )

    def _end(self, index: int) -> int:
        """End LSN (exclusive) of record ``index``."""
        starts = self._starts
        return starts[index + 1] if index + 1 < len(starts) else self._head

    def records_between(self, from_lsn: int, to_lsn: int) -> list[LogRecord]:
        """Records whose start LSN lies in [from_lsn, to_lsn)."""
        lo, hi = self._index_range(from_lsn, to_lsn)
        starts = self._starts
        return [
            LogRecord(
                lsn=starts[i],
                size=self._end(i) - starts[i],
                time=self._times[i],
                txn_id=self._txn_ids[i],
                tag=self._tags[i],
            )
            for i in range(lo, hi)
        ]

    def tagged_bytes_between(self, from_lsn: int, to_lsn: int, tag: int) -> int:
        """Bytes of records with ``tag`` starting in [from_lsn, to_lsn).

        Shared-process engines interleave all tenants' writes in one
        log; a table-level migration ships only one tenant's records.
        """
        lo, hi = self._index_range(from_lsn, to_lsn)
        starts, tags = self._starts, self._tags
        return sum(self._end(i) - starts[i] for i in range(lo, hi) if tags[i] == tag)

    def truncate_before(self, lsn: int) -> int:
        """Drop records entirely below ``lsn``; returns bytes reclaimed.

        Models binlog purging after deltas have been applied.  LSNs are
        never reused: the head keeps advancing.
        """
        starts = self._starts
        if not starts:
            return 0
        # A record is droppable only if it ends at or before ``lsn``.
        # Record i ends where record i + 1 starts (the last one at the
        # head), so the droppable prefix is counted on starts[1:].
        if self._head <= lsn:
            lo = len(starts)
        else:
            lo = bisect.bisect_right(starts, lsn, 1) - 1
        if lo == 0:
            return 0
        reclaimed = self._end(lo - 1) - starts[0]
        for column in (starts, self._times, self._txn_ids, self._tags):
            del column[:lo]
        return reclaimed
