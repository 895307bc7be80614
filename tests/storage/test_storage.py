"""Unit tests for the simulated paged storage layer."""

import pytest

from repro.errors import DanglingReferenceError, StorageError
from repro.relational.record import Record
from repro.relational.statistics import AccessStatistics
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.page import Page
from repro.storage.storedrelation import StoredRelation
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema

SCHEMA = RelationSchema("numbers", [("n", INTEGER)], key=["n"])


def record(n: int) -> Record:
    return Record(SCHEMA, {"n": n})


class TestPage:
    def test_append_and_read(self):
        page = Page(0, capacity=2)
        slot = page.append(record(1))
        assert page.read(slot).n == 1

    def test_capacity_enforced(self):
        page = Page(0, capacity=1)
        page.append(record(1))
        assert page.is_full()
        with pytest.raises(StorageError):
            page.append(record(2))

    def test_invalid_capacity(self):
        with pytest.raises(StorageError):
            Page(0, capacity=0)

    def test_tombstone(self):
        page = Page(0, capacity=4)
        slot = page.append(record(1))
        page.append(record(2))
        page.tombstone(slot)
        assert page.read(slot) is None
        assert page.live_count() == 1
        assert page.allocated() == 2
        assert [r.n for r in page.records()] == [2]

    def test_tombstoning_a_dead_slot_is_a_noop(self):
        page = Page(0, capacity=2)
        slot = page.append(record(1))
        page.append(record(2))
        page.tombstone(slot)
        page.tombstone(slot)
        assert page.live_count() == 1

    def test_overwrite_replaces_a_live_record_in_place(self):
        page = Page(0, capacity=2)
        page.append(record(5))
        slot = page.append(record(9))
        assert page.zone("n") == (5, 9)
        page.overwrite(slot, record(7))
        assert [r.n for r in page.records()] == [5, 7]
        assert page.zone("n") == (5, 7) and page.live_count() == 2
        page.tombstone(slot)
        with pytest.raises(StorageError):
            page.overwrite(slot, record(8))

    def test_tombstone_unallocated_slot_raises(self):
        with pytest.raises(StorageError):
            Page(0).tombstone(0)

    def test_read_bad_slot_raises(self):
        with pytest.raises(StorageError):
            Page(0).read(3)


class TestHeapFile:
    def test_append_allocates_pages(self):
        heap = HeapFile("numbers", page_capacity=2)
        rids = [heap.append(record(i)) for i in range(5)]
        assert heap.page_count == 3
        assert heap.live_count() == 5
        assert rids[0] == RecordId(0, 0)
        assert rids[4].page_number == 2

    def test_read_and_delete(self):
        heap = HeapFile("numbers", page_capacity=2)
        rid = heap.append(record(7))
        assert heap.read(rid).n == 7
        heap.delete(rid)
        assert heap.read(rid) is None
        assert heap.live_count() == 0

    def test_records_iteration_skips_tombstones(self):
        heap = HeapFile("numbers", page_capacity=2)
        keep = heap.append(record(1))
        gone = heap.append(record(2))
        heap.delete(gone)
        assert [r.n for r in heap.records()] == [1]

    def test_unknown_page_raises(self):
        with pytest.raises(StorageError):
            HeapFile("numbers").page(4)

    def test_truncate(self):
        heap = HeapFile("numbers")
        heap.append(record(1))
        heap.truncate()
        assert heap.page_count == 0


class TestBufferPool:
    def test_hits_and_misses(self):
        heap = HeapFile("numbers", page_capacity=1)
        for i in range(3):
            heap.append(record(i))
        pool = BufferPool(size=2)
        pool.get_page(heap, 0)
        pool.get_page(heap, 0)
        pool.get_page(heap, 1)
        assert pool.hits == 1
        assert pool.misses == 2
        assert pool.hit_rate() == pytest.approx(1 / 3)

    def test_lru_eviction(self):
        heap = HeapFile("numbers", page_capacity=1)
        for i in range(3):
            heap.append(record(i))
        pool = BufferPool(size=2)
        pool.get_page(heap, 0)
        pool.get_page(heap, 1)
        pool.get_page(heap, 2)  # evicts page 0
        pool.get_page(heap, 0)  # miss again
        assert pool.misses == 4
        assert pool.resident_pages() == 2

    def test_tracker_integration(self):
        stats = AccessStatistics()
        heap = HeapFile("numbers", page_capacity=1)
        heap.append(record(1))
        pool = BufferPool(size=1, tracker=stats)
        pool.get_page(heap, 0)
        pool.get_page(heap, 0)
        assert stats.pages_read == 2
        assert stats.page_hits == 1

    def test_invalidate(self):
        heap = HeapFile("numbers", page_capacity=1)
        heap.append(record(1))
        pool = BufferPool(size=2)
        pool.get_page(heap, 0)
        pool.invalidate("numbers")
        assert pool.resident_pages() == 0

    def test_minimum_size(self):
        with pytest.raises(StorageError):
            BufferPool(size=0)


class TestStoredRelation:
    def make(self, count: int = 70, page_capacity: int = 32) -> StoredRelation:
        stats = AccessStatistics()
        relation = StoredRelation(
            "numbers", SCHEMA, tracker=stats, page_capacity=page_capacity
        )
        for i in range(count):
            relation.insert({"n": i})
        return relation

    def test_behaves_like_a_relation(self):
        relation = self.make(10)
        assert len(relation) == 10
        assert relation[3].n == 3
        assert relation.ref(5).deref().n == 5

    def test_scan_counts_pages_and_elements(self):
        relation = self.make(70, page_capacity=32)
        assert relation.page_count == 3
        list(relation.scan())
        stats = relation.tracker
        assert stats.scans("numbers") == 1
        assert stats.elements_read("numbers") == 70
        assert stats.pages_read == 3

    def test_repeated_scans_hit_the_buffer_pool(self):
        relation = self.make(40, page_capacity=32)
        list(relation.scan())
        list(relation.scan())
        assert relation.buffer_pool.hits >= 2

    def test_fetch_by_key(self):
        relation = self.make(10)
        assert relation.fetch(4).n == 4
        assert relation.fetch(99) is None

    def test_fetch_many_reads_and_charges_like_one_fetch_per_key(self):
        one_by_one, bulk = self.make(10, page_capacity=4), self.make(10, page_capacity=4)
        keys = [(4,), (9,), (4,), (0,)]
        assert [one_by_one.fetch(key).n for key in keys] == [4, 9, 4, 0]
        assert [record.n for record in bulk.fetch_many(keys)] == [4, 9, 4, 0]
        assert bulk.tracker.as_dict() == one_by_one.tracker.as_dict()
        assert bulk.tracker.elements_read("numbers") == 4 and bulk.tracker.pages_read == 4
        with pytest.raises(DanglingReferenceError):
            bulk.fetch_many([(4,), (99,)])

    def test_delete_tombstones_heap(self):
        relation = self.make(5)
        relation.delete_key(2)
        assert relation.heap_file.live_count() == 4
        assert [r.n for r in relation.scan()] == [0, 1, 3, 4]

    def test_assign_truncates_heap(self):
        relation = self.make(5)
        relation.assign([{"n": 100}])
        assert len(relation) == 1
        assert relation.heap_file.live_count() == 1
        assert [r.n for r in relation.scan()] == [100]

    def test_clear(self):
        relation = self.make(5)
        relation.clear()
        assert relation.is_empty()
        assert relation.page_count == 0


class TestDeadPagesAreGivenBack:
    """Insert/delete churn must hold pages in proportion to the live records:
    a full page without a live record leaves the file — page numbers, record
    ids and scan order unchanged."""

    def test_a_full_dead_page_leaves_the_file(self):
        heap = HeapFile("numbers", page_capacity=2)
        rids = [heap.append(record(i)) for i in range(5)]
        assert heap.page_count == 3 and heap.allocated_slots() == 5
        heap.delete(rids[2])
        assert heap.page_count == 3  # page 1 is full but half alive
        heap.delete(rids[3])
        assert heap.page_count == 2 and heap.page_numbers() == [0, 2]
        assert heap.allocated_slots() == 3
        # Record ids stay valid, order is unchanged, numbers are not reused.
        assert [heap.read(rid).n for rid in (rids[0], rids[1], rids[4])] == [0, 1, 4]
        assert [r.n for r in heap.records()] == [0, 1, 4]
        assert heap.append(record(5)) == RecordId(2, 1)
        assert heap.append(record(6)) == RecordId(3, 0)

    def test_a_given_back_page_number_reads_as_an_empty_page(self):
        heap = HeapFile("numbers", page_capacity=1)
        rid = heap.append(record(1))
        heap.append(record(2))
        heap.delete(rid)
        page = heap.page(0)
        assert list(page.records()) == [] and page.live_count() == 0
        assert page.zone("n") is None and not page.may_contain("n", "=", 1)
        assert heap.read(rid) is None
        heap.delete(rid)  # tombstoning a dead slot stays a no-op
        with pytest.raises(StorageError):
            page.append(record(3))  # shared and immutable
        with pytest.raises(StorageError):
            heap.page(2)

    def test_the_last_page_is_kept_while_it_can_still_take_records(self):
        heap = HeapFile("numbers", page_capacity=2)
        rid = heap.append(record(1))
        heap.delete(rid)
        assert heap.page_count == 1  # dead, but not full
        assert heap.append(record(2)) == RecordId(0, 1)
        heap.delete(RecordId(0, 1))
        assert heap.page_count == 0  # full and dead now
        assert heap.append(record(3)) == RecordId(1, 0)

    def test_scans_skip_given_back_pages_without_a_fetch(self):
        stats = AccessStatistics()
        relation = StoredRelation("numbers", SCHEMA, tracker=stats, page_capacity=2)
        for n in range(8):
            relation.insert({"n": n})
        for n in (2, 3, 4, 5):
            relation.delete_key(n)
        assert relation.page_count == 2
        stats.reset()
        assert [r.n for r in relation.scan()] == [0, 1, 6, 7]
        assert stats.pages_read == 2
        assert [r.n for r in relation.scan_pruned("n", ">=", 6)] == [6, 7]
        assert stats.pages_read == 3 and stats.pages_skipped == 1
        assert relation.fetch(6).n == 6 and relation.fetch(3) is None

    def test_a_scan_parked_on_a_page_that_dies_is_not_disturbed(self):
        relation = StoredRelation("numbers", SCHEMA, page_capacity=2)
        for n in range(6):
            relation.insert({"n": n})
        scan = relation.scan()
        assert next(scan).n == 0
        for n in (0, 1, 2, 3):  # the page under the scan, and the next one
            relation.delete_key(n)
        assert relation.page_count == 1
        # The parked page object is tombstoned in place; the page the scan
        # has yet to reach reads as empty.
        assert [r.n for r in scan] == [4, 5]
        assert relation.buffer_pool.pinned_pages() == 0

    def test_insert_raw_overwrites_in_place_on_heap_and_dict_alike(self):
        schema = RelationSchema("pairs", [("k", INTEGER), ("v", INTEGER)], key=["k"])
        relation = StoredRelation("pairs", schema, page_capacity=2)
        for k in range(3):
            relation.insert({"k": k, "v": k})
        relation.insert_raw(Record(schema, {"k": 0, "v": 9}))
        assert [r.values for r in relation.elements()] == [(0, 9), (1, 1), (2, 2)]
        assert [r.values for r in relation.heap_file.records()] == [(0, 9), (1, 1), (2, 2)]
        assert relation.heap_file.allocated_slots() == 3
        assert relation.fetch(0).v == 9

    def test_window_churn_holds_pages_in_proportion_to_the_window(self):
        relation = StoredRelation("numbers", SCHEMA, page_capacity=4)
        for n in range(2_000):
            relation.insert({"n": n})
            if n >= 10:
                relation.delete_key(n - 10)
        heap = relation.heap_file
        assert len(relation) == heap.live_count() == 10
        assert heap.page_count <= 4 and heap.allocated_slots() <= 2 * 10 + 4
        assert [r.n for r in heap.records()] == [r.n for r in relation.elements()]


class TestZoneMaps:
    def test_zone_bounds_and_invalidations(self):
        page = Page(0, capacity=4)
        page.append(record(5))
        page.append(record(9))
        assert page.zone("n") == (5, 9)
        page.append(record(1))
        assert page.zone("n") == (1, 9)  # append invalidates the cache
        page.tombstone(2)
        assert page.zone("n") == (5, 9)  # tombstone invalidates it too

    def test_zone_of_empty_or_unknown_component(self):
        page = Page(0, capacity=4)
        assert page.zone("n") is None
        page.append(record(3))
        assert page.zone("nonexistent") is None
        assert not page.may_contain("n", "=", 99) or page.may_contain("n", "=", 3)

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 7, True), ("=", 3, False), ("=", 20, False),
            ("<", 6, True), ("<", 5, False),
            ("<=", 5, True), ("<=", 4, False),
            (">", 9, True), (">", 10, False),
            (">=", 10, True), (">=", 11, False),
            ("<>", 7, True),
        ],
    )
    def test_may_contain(self, op, value, expected):
        page = Page(0, capacity=4)
        page.append(record(5))
        page.append(record(10))
        assert page.may_contain("n", op, value) is expected

    def test_not_equal_prunes_single_value_pages(self):
        page = Page(0, capacity=4)
        page.append(record(5))
        page.append(record(5))
        assert not page.may_contain("n", "<>", 5)
        assert page.may_contain("n", "<>", 6)

    def test_scan_pruned_skips_and_counts(self):
        stats = AccessStatistics()
        relation = StoredRelation("numbers", SCHEMA, tracker=stats, page_capacity=8)
        for i in range(40):  # five pages: 0-7, 8-15, ..., 32-39
            relation.insert({"n": i})
        rows = [r.n for r in relation.scan_pruned("n", "<=", 10)]
        # Conservative: the two pages that may contain matches are yielded
        # in full (0-7 and 8-15); the caller filters records.
        assert rows == list(range(16))
        assert stats.pages_skipped == 3
        assert stats.pages_read == 2
        # Pruning never loses rows: filtering the pruned scan equals a scan.
        full = [r.n for r in relation.scan() if r.n <= 10]
        assert [n for n in rows if n <= 10] == full

    def test_scan_pruned_reflects_mutations(self):
        stats = AccessStatistics()
        relation = StoredRelation("numbers", SCHEMA, tracker=stats, page_capacity=4)
        for i in range(8):
            relation.insert({"n": i})
        assert [r.n for r in relation.scan_pruned("n", ">=", 6)] == [4, 5, 6, 7]
        relation.delete_key((6,))
        relation.delete_key((7,))
        assert [r.n for r in relation.scan_pruned("n", ">=", 6)] == []
        relation.insert({"n": 9})
        assert 9 in [r.n for r in relation.scan_pruned("n", ">=", 6)]
