"""Heap files: a sequence of pages holding one relation, appended at the end."""

from __future__ import annotations

from typing import Iterator

from repro.errors import StorageError
from repro.relational.record import Record
from repro.storage.page import DEFAULT_PAGE_CAPACITY, Page

__all__ = ["HeapFile", "RecordId"]


class RecordId(tuple):
    """The physical address ``(page_number, slot)`` of a stored record."""

    __slots__ = ()

    def __new__(cls, page_number: int, slot: int) -> "RecordId":
        return super().__new__(cls, (page_number, slot))

    @property
    def page_number(self) -> int:
        return self[0]

    @property
    def slot(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"RecordId(page={self[0]}, slot={self[1]})"


class HeapFile:
    """An unordered file of pages, one per relation.

    Records are appended to the last page; a new page is allocated whenever
    the last one fills up.  Deletion tombstones the slot in place — and when
    that leaves a *full* page without a live record, the file gives the page
    back: nothing can ever be appended to it again, so it is dropped from
    the page table.  Insert/delete churn (a sliding window of elements, a
    queue) therefore holds pages in proportion to the live records, not to
    the history.  Page numbers are never reused and never shift, so record
    ids stay valid, the surviving pages keep their order (file order equals
    the owning relation's dict order) and a scan parked on a page is not
    disturbed; a page number that was given back reads as one shared empty
    page.  Nothing is ever repacked behind a reader's back — compaction of
    half-empty pages happens only where the whole file is rebuilt anyway
    (``truncate`` + reload: assignment, recovery's repack).
    """

    def __init__(self, name: str, page_capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        self.name = name
        self.page_capacity = page_capacity
        # page number -> page, in file order; given-back pages are absent.
        self._pages: dict[int, Page] = {}
        # Page numbers handed out so far (the next page gets this number).
        self._allocated = 0

    # -- writing ------------------------------------------------------------------

    def append(self, record: Record) -> RecordId:
        """Store ``record`` and return its physical address."""
        page = self._pages.get(self._allocated - 1)
        if page is None or page.is_full():
            page = self._pages[self._allocated] = Page(self._allocated, self.page_capacity)
            self._allocated += 1
        slot = page.append(record)
        return RecordId(page.page_number, slot)

    def overwrite(self, rid: RecordId, record: Record) -> None:
        """Replace the live record at ``rid`` in place (same key, new value)."""
        self.page(rid.page_number).overwrite(rid.slot, record)

    def delete(self, rid: RecordId) -> None:
        """Tombstone the record at ``rid``; give its page back once it is dead."""
        page = self.page(rid.page_number)
        page.tombstone(rid.slot)
        if page.is_full() and not page.live_count():
            self._pages.pop(rid.page_number, None)

    def truncate(self) -> None:
        """Drop every page; numbering starts over."""
        self._pages = {}
        self._allocated = 0

    # -- reading -------------------------------------------------------------------

    def page(self, page_number: int) -> Page:
        """The page with the given number (an empty page once it was given back)."""
        page = self._pages.get(page_number)
        if page is None:
            if not 0 <= page_number < self._allocated:
                raise StorageError(
                    f"heap file {self.name!r} has no page {page_number}"
                )
            page = _GIVEN_BACK
        return page

    def read(self, rid: RecordId) -> Record | None:
        """The record at ``rid`` (``None`` when tombstoned)."""
        return self.page(rid.page_number).read(rid.slot)

    def pages(self) -> Iterator[Page]:
        """All pages the file holds, in file order."""
        return iter(self._pages.values())

    def page_numbers(self) -> list[int]:
        """The numbers of the pages the file holds, in file order."""
        return list(self._pages)

    def records(self) -> Iterator[Record]:
        """All live records in file order (no buffering / accounting)."""
        for page in self._pages.values():
            yield from page.records()

    # -- sizes ----------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages the file holds (given-back pages do not count)."""
        return len(self._pages)

    def live_count(self) -> int:
        """Number of live records across all pages."""
        return sum(page.live_count() for page in self._pages.values())

    def allocated_slots(self) -> int:
        """Slots the file occupies, live or tombstoned."""
        return sum(page.allocated() for page in self._pages.values())

    def __len__(self) -> int:
        return self.live_count()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"HeapFile({self.name!r}, {self.page_count} pages, {self.live_count()} records)"


class _GivenBackPage(Page):
    """What every given-back page number reads as: full, empty, immutable."""

    def is_full(self) -> bool:
        return True

    def read(self, slot: int) -> None:
        return None

    def tombstone(self, slot: int) -> None:
        pass  # every slot of a given-back page is already dead


_GIVEN_BACK = _GivenBackPage(-1)
