"""Unit and property tests for the binary log."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.log import BinaryLog, LogRecord


class TestBinaryLog:
    def test_starts_empty(self):
        log = BinaryLog()
        assert log.head_lsn == 0
        assert log.record_count == 0

    def test_append_advances_head(self):
        log = BinaryLog()
        assert log.append(size=100, time=0.0, txn_id=1) == 100
        assert log.append(size=50, time=1.0, txn_id=2) == 150
        assert log.head_lsn == 150

    def test_append_rejects_nonpositive_size(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.append(size=0, time=0.0, txn_id=1)

    def test_bytes_between(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        assert log.bytes_between(0, 150) == 150
        assert log.bytes_between(100, 150) == 50
        assert log.bytes_between(150, 150) == 0

    def test_bytes_between_clamps_to_head(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        assert log.bytes_between(0, 10_000) == 100

    def test_bytes_between_rejects_reversed_range(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.bytes_between(10, 5)

    def test_records_between(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        log.append(size=25, time=2.0, txn_id=3)
        records = log.records_between(100, 175)
        assert [r.txn_id for r in records] == [2, 3]

    def test_records_between_rejects_reversed_range(self):
        log = BinaryLog()
        with pytest.raises(ValueError):
            log.records_between(10, 5)

    def test_record_metadata(self):
        log = BinaryLog()
        log.append(size=64, time=3.5, txn_id=9)
        (record,) = log.records_between(0, 64)
        assert record.lsn == 0
        assert record.size == 64
        assert record.time == 3.5
        assert record.txn_id == 9

    def test_truncate_reclaims_and_preserves_head(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        log.append(size=50, time=1.0, txn_id=2)
        reclaimed = log.truncate_before(100)
        assert reclaimed == 100
        assert log.record_count == 1
        assert log.head_lsn == 150  # LSNs never reused
        assert [r.txn_id for r in log.records_between(0, 150)] == [2]

    def test_truncate_mid_record_keeps_it(self):
        log = BinaryLog()
        log.append(size=100, time=0.0, txn_id=1)
        assert log.truncate_before(50) == 0
        assert log.record_count == 1


@given(sizes=st.lists(st.integers(min_value=1, max_value=1000), max_size=100))
def test_head_equals_sum_of_sizes(sizes):
    log = BinaryLog()
    for i, size in enumerate(sizes):
        log.append(size=size, time=float(i), txn_id=i)
    assert log.head_lsn == sum(sizes)
    assert log.bytes_between(0, log.head_lsn) == sum(sizes)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=50),
    split=st.floats(min_value=0, max_value=1),
)
def test_ranges_partition_the_log(sizes, split):
    log = BinaryLog()
    for i, size in enumerate(sizes):
        log.append(size=size, time=float(i), txn_id=i)
    mid = int(log.head_lsn * split)
    left = log.bytes_between(0, mid)
    right = log.bytes_between(mid, log.head_lsn)
    assert left + right == log.head_lsn


@pytest.mark.parametrize("seed", [1, 7, 42, 2024])
def test_columns_match_a_list_of_records_reference(seed):
    """Range queries and truncation on the columnar log agree with a
    plain list of :class:`LogRecord` under seeded appends, queries with
    bounds on, inside and past record boundaries, and purges."""
    rng = random.Random(seed)
    log = BinaryLog()
    reference: list[LogRecord] = []
    head = 0

    def bound() -> int:
        # Record starts, mid-record points, the head and beyond.
        pick = rng.random()
        if pick < 0.4 and reference:
            return rng.choice(reference).lsn
        if pick < 0.5:
            return head + rng.randint(0, 300)
        return rng.randint(0, head + 1)

    for step in range(600):
        roll = rng.random()
        if roll < 0.6:
            size = rng.randint(1, 300)
            tag = rng.randint(0, 3)
            record = LogRecord(head, size, time=step * 0.25, txn_id=step, tag=tag)
            assert log.append(size, record.time, step, tag) == head + size
            reference.append(record)
            head += size
        elif roll < 0.9:
            lo, hi = sorted((bound(), bound()))
            inside = [r for r in reference if lo <= r.lsn < hi]
            assert log.records_between(lo, hi) == inside
            tag = rng.randint(0, 3)
            assert log.tagged_bytes_between(lo, hi, tag) == sum(
                r.size for r in inside if r.tag == tag
            )
        else:
            lsn = bound()
            dropped = [r for r in reference if r.lsn + r.size <= lsn]
            assert log.truncate_before(lsn) == sum(r.size for r in dropped)
            reference = reference[len(dropped):]
        assert log.record_count == len(reference)
        assert log.head_lsn == head
    assert log.records_between(0, head + 1) == reference
