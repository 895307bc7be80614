"""A small LRU buffer pool over heap-file pages, with pinning.

The pool exists so the benchmark harness can report buffer hit rates when a
relation is scanned repeatedly — which is exactly the behaviour Strategy 1
(parallel evaluation of subexpressions) is designed to avoid.

Pinning exists for the streaming executor: a :class:`StoredRelation` scan is
a generator that can stay parked on a page for the whole life of a pipeline
(a streamed join consumes its input row-by-row, interleaved with whatever
else the query is doing).  The scan pins its current page, so buffer-pool
reuse by concurrent scans can neither evict the frame under the iterator
nor, in a real system, hand its slot to different bytes mid-iteration.
Pinned frames are skipped by LRU eviction (the pool temporarily overflows
when every frame is pinned); deliberate invalidation still drops them — the
parked iterator keeps reading the page object it captured, while later
fetches re-read the rewritten heap file instead of a stale frame.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import StorageError
from repro.relational.statistics import AccessStatistics
from repro.storage.heapfile import HeapFile
from repro.storage.page import Page

__all__ = ["BufferPool", "DEFAULT_POOL_SIZE"]

#: Default number of page frames.
DEFAULT_POOL_SIZE = 16


class BufferPool:
    """An LRU cache of ``(file name, page number)`` frames.

    The pool never copies page contents (everything already lives in memory);
    it only tracks which pages would have been resident, so hits and misses
    reflect the access pattern of the evaluation strategies.
    """

    def __init__(
        self,
        size: int = DEFAULT_POOL_SIZE,
        tracker: AccessStatistics | None = None,
    ) -> None:
        if size < 1:
            raise StorageError("buffer pool needs at least one frame")
        self.size = size
        self.tracker = tracker
        self._frames: OrderedDict[tuple[str, int], Page] = OrderedDict()
        self._pins: dict[tuple[str, int], int] = {}
        # Dirty-page table: (file name, page number) -> recovery LSN, the
        # LSN of the newest WAL record describing a mutation of that page.
        # The write-ahead gate (:meth:`flush_page`) refuses to force a page
        # whose recovery LSN the log has not yet made durable.
        self._dirty: dict[tuple[str, int], int] = {}
        self.hits = 0
        self.misses = 0

    def get_page(self, heap_file: HeapFile, page_number: int) -> Page:
        """Fetch a page through the pool, recording a hit or a miss."""
        page = self._fetch(heap_file, page_number)
        self._evict_excess()
        return page

    def _fetch(self, heap_file: HeapFile, page_number: int) -> Page:
        """Resolve a frame (charging hit/miss) without running eviction.

        Eviction is the caller's second step: :meth:`pin` must register its
        pin *between* fetch and eviction, or a full pool would evict the very
        frame it just fetched for pinning.
        """
        frame_key = (heap_file.name, page_number)
        page = self._frames.get(frame_key)
        if page is not None:
            self._frames.move_to_end(frame_key)
            self.hits += 1
            if self.tracker is not None:
                self.tracker.record_page_read(hit=True)
            return page
        page = heap_file.page(page_number)
        self.misses += 1
        if self.tracker is not None:
            self.tracker.record_page_read(hit=False)
        self._frames[frame_key] = page
        return page

    def _evict_excess(self) -> None:
        """Drop least-recently-used *unpinned* frames down to capacity.

        When every resident frame is pinned the pool overflows temporarily —
        an iterator must never lose the page it is parked on.
        """
        while len(self._frames) > self.size:
            victim = None
            for frame_key in self._frames:  # OrderedDict iterates LRU-first
                if self._pins.get(frame_key, 0) == 0:
                    victim = frame_key
                    break
            if victim is None:
                break
            del self._frames[victim]

    # -- pinning --------------------------------------------------------------

    def pin(self, heap_file: HeapFile, page_number: int) -> Page:
        """Fetch a page and pin its frame against eviction.

        Pins nest (each :meth:`pin` needs a matching :meth:`unpin`); the
        fetch itself is charged exactly like :meth:`get_page`.  The pin is
        registered before eviction runs, so pinning into a full pool can
        never evict the frame being pinned.
        """
        page = self._fetch(heap_file, page_number)
        frame_key = (heap_file.name, page_number)
        self._pins[frame_key] = self._pins.get(frame_key, 0) + 1
        self._evict_excess()
        return page

    def unpin(self, heap_file_name: str, page_number: int) -> None:
        """Release one pin; the frame becomes evictable when the count hits zero."""
        frame_key = (heap_file_name, page_number)
        count = self._pins.get(frame_key)
        if count is None:
            raise StorageError(
                f"unpin of {frame_key} without a matching pin"
            )
        if count == 1:
            del self._pins[frame_key]
            self._evict_excess()
        else:
            self._pins[frame_key] = count - 1

    def pin_count(self, heap_file_name: str, page_number: int) -> int:
        """Current pin count of one frame (0 when unpinned)."""
        return self._pins.get((heap_file_name, page_number), 0)

    def pinned_pages(self) -> int:
        """Number of frames currently pinned."""
        return len(self._pins)

    def is_resident(self, heap_file_name: str, page_number: int) -> bool:
        """Whether the frame is currently in the pool."""
        return (heap_file_name, page_number) in self._frames

    # -- dirty-page tracking (the write-ahead gate) ---------------------------

    def mark_dirty(self, heap_file_name: str, page_number: int, lsn: int) -> None:
        """Record that a page was mutated under WAL record ``lsn``.

        ``lsn`` 0 marks a mutation that produced no WAL record (a non-durable
        database, a load, or recovery redo) — such pages pass the gate
        unconditionally.  Repeated mutations keep the *newest* LSN: the page
        may not be forced until its latest describing record is durable.
        """
        frame_key = (heap_file_name, page_number)
        if lsn > self._dirty.get(frame_key, -1):
            self._dirty[frame_key] = lsn

    def dirty_pages(self, heap_file_name: str | None = None) -> list[tuple[str, int, int]]:
        """``(file, page, recovery LSN)`` of every dirty page, page order."""
        return sorted(
            (file_name, page_number, lsn)
            for (file_name, page_number), lsn in self._dirty.items()
            if heap_file_name is None or file_name == heap_file_name
        )

    def flush_page(self, heap_file_name: str, page_number: int, durable_lsn: int) -> None:
        """Force one dirty page — but only if the WAL got there first.

        This is the write-ahead rule as an enforced invariant rather than a
        convention: a page whose recovery LSN exceeds ``durable_lsn`` would,
        if forced, put effects on disk that the log cannot redo *or* undo
        after a crash.  The checkpoint protocol flushes and fsyncs the WAL
        before forcing pages, so a gate failure is always a protocol bug —
        hence a hard :class:`~repro.errors.StorageError`.
        """
        frame_key = (heap_file_name, page_number)
        lsn = self._dirty.get(frame_key)
        if lsn is None:
            return
        if lsn > durable_lsn:
            raise StorageError(
                f"write-ahead violation: page {heap_file_name}:{page_number} has "
                f"recovery LSN {lsn} but the WAL is only durable to {durable_lsn}"
            )
        del self._dirty[frame_key]

    def discard_dirty(self, heap_file_name: str | None = None) -> None:
        """Forget dirty state (the pages' file was truncated or rebuilt)."""
        if heap_file_name is None:
            self._dirty.clear()
            return
        for frame_key in [key for key in self._dirty if key[0] == heap_file_name]:
            del self._dirty[frame_key]

    def dirty_count(self, heap_file_name: str | None = None) -> int:
        """Number of dirty pages (of one file, or overall)."""
        if heap_file_name is None:
            return len(self._dirty)
        return sum(1 for key in self._dirty if key[0] == heap_file_name)

    # -- maintenance ----------------------------------------------------------

    def invalidate(self, heap_file_name: str) -> None:
        """Drop every frame belonging to ``heap_file_name``, pinned or not.

        Pins protect a frame against LRU *reuse* eviction, not against
        deliberate invalidation (the file was truncated or rewritten, so a
        resident frame would serve stale pages to later readers).  An open
        iterator is unaffected: it reads the page *object* it captured when
        it pinned, and its later :meth:`unpin` simply drops the pin count —
        a fresh fetch of the same page number re-reads the heap file.
        """
        stale = [key for key in self._frames if key[0] == heap_file_name]
        for key in stale:
            del self._frames[key]

    def resident_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._frames)

    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"BufferPool(size={self.size}, resident={len(self._frames)}, "
            f"pinned={len(self._pins)}, hits={self.hits}, misses={self.misses})"
        )
