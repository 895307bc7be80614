"""Database relations backed by the simulated paged storage layer.

A :class:`StoredRelation` behaves exactly like an in-memory
:class:`~repro.relational.relation.Relation` (so all of the algebra, the
reference mechanism and the indexes work unchanged) but additionally keeps a
heap file of pages and routes :meth:`scan` through a buffer pool, so that
scans are charged both at the element level and at the page level.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.relational.record import Record, values_of
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.storage.buffer import DEFAULT_POOL_SIZE, BufferPool
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.page import DEFAULT_PAGE_CAPACITY
from repro.types.schema import RelationSchema

__all__ = ["StoredRelation"]


class StoredRelation(Relation):
    """A relation whose elements also live in a simulated heap file."""

    def __init__(
        self,
        name: str,
        schema: RelationSchema,
        elements: Iterable[Record | Mapping[str, Any] | tuple] | None = None,
        tracker: AccessStatistics | None = None,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        self._heap = HeapFile(name, page_capacity)
        self._rids: dict[tuple, RecordId] = {}
        self._pool = buffer_pool if buffer_pool is not None else BufferPool(
            DEFAULT_POOL_SIZE, tracker
        )
        super().__init__(name, schema, elements=elements, tracker=tracker)

    # -- updates (keep heap file in step with the in-memory dictionary) ------------
    #
    # Dirtied pages carry recovery LSN 0: a transaction reaches the log as
    # one commit frame, and a checkpoint (refused mid-transaction) fsyncs
    # the log before it forces any page, so no page can get ahead of it.

    def insert(self, element: Record | Mapping[str, Any] | tuple) -> Record:
        record = super().insert(element)
        key = self.schema.key_of(record.values)
        if key not in self._rids:
            rid = self._rids[key] = self._heap.append(record)
            self._pool.mark_dirty(self.name, rid.page_number, 0)
        return record

    def insert_raw(self, record: Record) -> Record:
        # Keep the heap file coherent for raw inserts too: a key overwrite
        # rewrites the element's slot in place (its position in the dict
        # does not move either), a fresh key appends.  (Hot algebra paths
        # never hit this — intermediate result relations are in-memory.)
        record = super().insert_raw(record)
        key = record.values if self._key_is_all else self.schema.key_of(record.values)
        rid = self._rids.get(key)
        if rid is None:
            rid = self._rids[key] = self._heap.append(record)
        else:
            stored = self._heap.read(rid)
            if stored is record or stored == record:
                return record
            self._heap.overwrite(rid, record)
        self._pool.mark_dirty(self.name, rid.page_number, 0)
        return record

    def _remove(self, key: tuple) -> bool:
        # Every delete entry point (delete, delete_key, a rollback's
        # restores) ends in _remove with the stored spelling of the key, so
        # overriding this single method keeps the heap file in step.
        removed = super()._remove(key)
        if removed:
            rid = self._rids.pop(key, None)
            if rid is not None:
                self._heap.delete(rid)
                self._pool.mark_dirty(self.name, rid.page_number, 0)
        return removed

    def clear(self) -> None:
        super().clear()
        self._heap.truncate()
        self._rids.clear()
        self._pool.invalidate(self.name)
        # The whole file changed shape; per-page dirty state is meaningless
        # now, but the truncation itself must still be forced by the next
        # checkpoint — page 0 stands in for "the file".
        self._pool.discard_dirty(self.name)
        self._pool.mark_dirty(self.name, 0, 0)

    def assign(self, elements: Iterable[Record | Mapping[str, Any] | tuple]) -> "StoredRelation":
        journal = self._journal
        if journal is not None:
            # Mirror Relation.assign: one journal entry for the whole
            # assignment, not one per constituent clear/insert; materialise
            # the new contents so the redo op carries the whole image.
            elements = [self._as_record(element) for element in elements]
            journal.before_mutation(self, "assign", elements)
            self._journal = None
        try:
            self.clear()
            self.insert_all(elements)
        finally:
            self._journal = journal
        return self

    # -- paged scanning --------------------------------------------------------------

    def scan(self) -> Iterator[Record]:
        """Sequential scan through the buffer pool with full accounting.

        The scan *pins* its current page for as long as the generator is
        parked on it: a streamed pipeline may hold this iterator open across
        arbitrary other work, and buffer-pool reuse by concurrent scans must
        not evict (or, in a real system, repurpose) the frame mid-page.  The
        pin is released when the iterator advances past the page — or when
        the generator is closed early, via the ``finally`` clause.
        """
        if self.tracker is not None:
            self.tracker.record_scan(self.name)
        for page_number in self._heap.page_numbers():
            page = self._pool.pin(self._heap, page_number)
            try:
                for record in page.records():
                    if self.tracker is not None:
                        self.tracker.record_element_read(self.name)
                    yield record
            finally:
                self._pool.unpin(self._heap.name, page_number)

    def scan_pruned(self, field_name: str, op: str, value: Any) -> Iterator[Record]:
        """Sequential scan skipping pages whose zone map refutes the predicate.

        The zone test consults page metadata only — a skipped page is neither
        fetched through the buffer pool nor charged as a page read; it is
        counted in ``pages_skipped`` instead.  Yielded records are NOT
        filtered here (the zone map is conservative); the caller applies the
        full restriction.  Fetched pages are pinned for the life of the
        iterator's stay on them, exactly like :meth:`scan`.
        """
        if self.tracker is not None:
            self.tracker.record_scan(self.name)
        for page_number in self._heap.page_numbers():
            if not self._heap.page(page_number).may_contain(field_name, op, value):
                if self.tracker is not None:
                    self.tracker.record_pages_skipped()
                continue
            page = self._pool.pin(self._heap, page_number)
            try:
                for record in page.records():
                    if self.tracker is not None:
                        self.tracker.record_element_read(self.name)
                    yield record
            finally:
                self._pool.unpin(self._heap.name, page_number)

    def fetch_many(self, keys: list[tuple]) -> list[Record]:
        """Also one buffered page read per key, in key order: hits and misses
        fall exactly as fetching the keys one at a time would charge them."""
        records = super().fetch_many(keys)
        rids, heap, get_page = self._rids, self._heap, self._pool.get_page
        for key in self.schema.keys_of(list(values_of(records))):  # as stored
            get_page(heap, rids[key].page_number)
        return records

    # -- durability support ---------------------------------------------------------------

    def flush_dirty_pages(self, durable_lsn: int, crash_point=None) -> int:
        """Force this relation's dirty pages through the write-ahead gate.

        Called by the database checkpoint after it has flushed and fsynced
        the WAL; every page force is a crash-point event (a real system can
        die between any two page writes) and every force re-checks the gate
        — a page whose recovery LSN the log has not made durable raises
        :class:`~repro.errors.StorageError` instead of being forced.
        Returns the number of pages forced.
        """
        forced = 0
        for file_name, page_number, _lsn in self._pool.dirty_pages(self.name):
            if crash_point is not None:
                crash_point.arm(f"page-flush {file_name}:{page_number}")
            self._pool.flush_page(file_name, page_number, durable_lsn)
            forced += 1
        return forced

    def repack(self) -> None:
        """Rebuild the heap file from the element dictionary, densely packed.

        Recovery calls this after redo: replayed deletes left tombstoned
        slots and replayed inserts appended to whatever layout the snapshot
        load produced, so without repacking the recovered page layout (and
        therefore the zone maps) would depend on the replay history.  After
        repacking, the heap is byte-for-byte the layout a fresh load of the
        same elements produces — the crash-recovery harness pins exactly
        that equivalence against a never-crashed control database.
        """
        self._heap.truncate()
        self._rids.clear()
        for key, record in self._elements.items():
            self._rids[key] = self._heap.append(record)
        self._pool.invalidate(self.name)
        self._pool.discard_dirty(self.name)
        for page_number in self._heap.page_numbers():
            self._pool.mark_dirty(self.name, page_number, 0)

    # -- storage inspection -------------------------------------------------------------

    @property
    def heap_file(self) -> HeapFile:
        """The underlying heap file (for tests and storage-level reporting)."""
        return self._heap

    @property
    def buffer_pool(self) -> BufferPool:
        """The buffer pool used by :meth:`scan` and :meth:`fetch_many`."""
        return self._pool

    @property
    def page_count(self) -> int:
        """Number of pages currently allocated to this relation."""
        return self._heap.page_count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"StoredRelation({self.name!r}, {len(self)} elements, "
            f"{self._heap.page_count} pages)"
        )
