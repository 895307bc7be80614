"""Satellite bugfix regression: streamed scans pin their buffer-pool pages.

A :class:`StoredRelation` scan is a generator; under the streaming executor
it can stay parked on one page for the whole life of a pipeline while other
operators scan other relations through the *same* buffer pool.  Before the
fix, pool reuse could evict the frame under the parked iterator; now the
scan pins its current page (pins nest, survive ``invalidate``, and are
released on advance or early close), and LRU eviction skips pinned frames —
overflowing temporarily when everything is pinned rather than yanking a page
out from under a live iterator.
"""

from __future__ import annotations

import pytest

from repro.engine.stream import RowStream
from repro.errors import StorageError
from repro.relational.algebra import stream_natural_join
from repro.relational.statistics import AccessStatistics
from repro.storage.buffer import BufferPool
from repro.storage.storedrelation import StoredRelation
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema


def stored(
    name: str,
    fields: list[str],
    rows: list[tuple],
    pool: BufferPool,
    page_capacity: int = 4,
    tracker: AccessStatistics | None = None,
) -> StoredRelation:
    schema = RelationSchema(name, [(f, INTEGER) for f in fields])
    relation = StoredRelation(
        name, schema, tracker=tracker, page_capacity=page_capacity, buffer_pool=pool
    )
    for row in rows:
        relation.insert(dict(zip(fields, row)))
    return relation


class TestPinning:
    def test_parked_scan_page_survives_pool_thrash(self):
        pool = BufferPool(size=2)
        big = stored("big", ["a"], [(i,) for i in range(40)], pool)  # 10 pages
        other = stored("other", ["b"], [(i,) for i in range(40)], pool)

        iterator = big.scan()
        first = next(iterator)  # parked on page 0, which is now pinned
        assert pool.pin_count("big", 0) == 1
        assert pool.is_resident("big", 0)

        consumed = list(other.scan())  # 10 pages through a 2-frame pool
        assert len(consumed) == 40
        # The parked page was never evicted, despite heavy reuse pressure.
        assert pool.is_resident("big", 0)
        assert pool.pin_count("big", 0) == 1

        rest = list(iterator)
        assert [first.a] + [r.a for r in rest] == list(range(40))
        assert pool.pinned_pages() == 0  # all pins released on exhaustion

    def test_early_close_releases_the_pin(self):
        pool = BufferPool(size=2)
        relation = stored("r", ["a"], [(i,) for i in range(12)], pool)
        iterator = relation.scan()
        next(iterator)
        assert pool.pinned_pages() == 1
        iterator.close()
        assert pool.pinned_pages() == 0

    def test_pruned_scan_pins_fetched_pages(self):
        pool = BufferPool(size=2)
        relation = stored("r", ["a"], [(i,) for i in range(12)], pool)
        iterator = relation.scan_pruned("a", "<=", 100)
        next(iterator)
        assert pool.pinned_pages() == 1
        list(iterator)
        assert pool.pinned_pages() == 0

    def test_eviction_skips_pinned_frames_and_overflows_when_all_pinned(self):
        pool = BufferPool(size=1)
        relation = stored("r", ["a"], [(i,) for i in range(12)], pool)  # 3 pages
        heap = relation.heap_file
        pool.pin(heap, 0)
        pool.pin(heap, 1)  # both pinned: the 1-frame pool must overflow
        assert pool.resident_pages() == 2
        pool.get_page(heap, 2)  # unpinned page comes and goes
        assert pool.is_resident("r", 0) and pool.is_resident("r", 1)
        pool.unpin("r", 0)
        pool.unpin("r", 1)
        assert pool.resident_pages() <= pool.size + 1  # drains back toward capacity

    def test_unpin_without_pin_is_an_error(self):
        pool = BufferPool(size=2)
        with pytest.raises(StorageError):
            pool.unpin("nope", 0)

    def test_invalidate_drops_even_pinned_frames_but_keeps_the_pin(self):
        pool = BufferPool(size=4)
        relation = stored("r", ["a"], [(i,) for i in range(12)], pool)
        heap = relation.heap_file
        pool.pin(heap, 0)
        pool.get_page(heap, 1)
        pool.invalidate("r")
        # Invalidation is a correctness operation: no frame of the file may
        # stay resident, or later readers would be served stale pages.  The
        # pin count itself survives and unpins without error.
        assert not pool.is_resident("r", 0)
        assert not pool.is_resident("r", 1)
        assert pool.pin_count("r", 0) == 1
        pool.unpin("r", 0)
        assert pool.pinned_pages() == 0

    def test_assign_during_open_scan_does_not_leave_stale_frames(self):
        """Regression: a pinned frame surviving ``invalidate`` used to serve
        the pre-assign page contents to every later scan."""
        pool = BufferPool(size=4)
        relation = stored("r", ["a"], [(0,), (1,), (2,)], pool)
        iterator = relation.scan()
        next(iterator)  # parked on (and pinning) page 0
        relation.assign([{"a": 100}, {"a": 101}, {"a": 102}])
        iterator.close()
        assert sorted(record.a for record in relation.scan()) == [100, 101, 102]


class TestStreamedJoinInterleavedWithScans:
    """The satellite's integration scenario: a long streamed join over the
    paged backend, interleaved with concurrent scans through one shared
    buffer pool, must neither lose its page nor change the join result."""

    def test_interleaved_streamed_join_matches_materialized(self):
        pool = BufferPool(size=2)
        tracker = AccessStatistics()
        left = stored(
            "orders", ["cust", "item"],
            [(i % 7, i) for i in range(48)], pool, tracker=tracker,
        )
        right = stored(
            "customers", ["cust", "tier"],
            [(i, i % 3) for i in range(7)], pool, tracker=tracker,
        )
        noise = stored("noise", ["x"], [(i,) for i in range(48)], pool, tracker=tracker)

        expected = stream_natural_join(RowStream.from_relation(left), right).materialize()

        stream = stream_natural_join(
            RowStream(left.schema, (record.values for record in left.scan()), label="orders"),
            right,
        )
        rows = []
        iterator = iter(stream)
        for position in range(10):  # drain slowly, thrashing the pool in between
            rows.append(next(iterator))
            consumed = sum(1 for _ in noise.scan())
            assert consumed == 48
        assert pool.pinned_pages() >= 1  # the parked join input stays pinned
        rows.extend(iterator)
        assert pool.pinned_pages() == 0

        streamed = sorted(rows)
        materialized = sorted(record.values for record in expected)
        assert streamed == materialized

    def test_abandoned_join_pipeline_releases_all_pins(self):
        pool = BufferPool(size=2)
        left = stored("l", ["a", "b"], [(i, i) for i in range(24)], pool)
        right = stored("r", ["b", "c"], [(i, i) for i in range(24)], pool)
        stream = stream_natural_join(
            RowStream(left.schema, (record.values for record in left.scan()), label="l"),
            right,
        )
        iterator = iter(stream)
        next(iterator)
        assert pool.pinned_pages() == 1
        iterator.close()  # pipeline shutdown propagates to the scan generator
        assert pool.pinned_pages() == 0
