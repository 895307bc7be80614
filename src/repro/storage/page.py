"""Fixed-capacity pages of the simulated storage layer.

The original PASCAL/R runtime read database relations from secondary storage
one element at a time (Section 4.1: "reading the relation
one-element-at-a-time").  The reproduction keeps everything in memory but
simulates the page structure so the benchmark harness can report page reads
and buffer-pool hit rates alongside the element counts the paper argues with.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import StorageError
from repro.relational.record import Record
from repro.types.scalar import sort_key

__all__ = ["Page", "DEFAULT_PAGE_CAPACITY"]

#: Default number of element slots per page.
DEFAULT_PAGE_CAPACITY = 32


class Page:
    """A fixed number of element slots.

    Slots hold records or ``None`` tombstones left behind by deletions; a page
    is *full* once every slot has been allocated, even if some were later
    tombstoned (no in-page compaction, like a simple slotted page).
    """

    def __init__(self, page_number: int, capacity: int = DEFAULT_PAGE_CAPACITY) -> None:
        if capacity < 1:
            raise StorageError("page capacity must be positive")
        self.page_number = page_number
        self.capacity = capacity
        self._slots: list[Optional[Record]] = []
        self._live = 0
        # Zone map: per-component (min, max) sort keys over the live records,
        # computed lazily and invalidated wholesale on any page mutation.
        self._zones: dict[str, tuple | None] | None = None

    def is_full(self) -> bool:
        """Whether every slot has been allocated."""
        return len(self._slots) >= self.capacity

    def append(self, record: Record) -> int:
        """Store ``record`` in the next free slot and return its slot number."""
        if self.is_full():
            raise StorageError(f"page {self.page_number} is full")
        self._slots.append(record)
        self._live += 1
        self._zones = None
        return len(self._slots) - 1

    def read(self, slot: int) -> Optional[Record]:
        """The record in ``slot`` (``None`` for a tombstone)."""
        try:
            return self._slots[slot]
        except IndexError:
            raise StorageError(
                f"slot {slot} beyond the {len(self._slots)} allocated slots of "
                f"page {self.page_number}"
            ) from None

    def overwrite(self, slot: int, record: Record) -> None:
        """Replace the live record in ``slot`` (an update in place)."""
        if self.read(slot) is None:
            raise StorageError(f"cannot overwrite dead slot {slot} of page {self.page_number}")
        self._slots[slot] = record
        self._zones = None

    def tombstone(self, slot: int) -> None:
        """Mark ``slot`` as deleted (a no-op on a slot that already is)."""
        if slot < 0 or slot >= len(self._slots):
            raise StorageError(f"cannot tombstone unallocated slot {slot}")
        if self._slots[slot] is not None:
            self._slots[slot] = None
            self._live -= 1
            self._zones = None

    # -- zone map -------------------------------------------------------------

    def zone(self, field_name: str) -> tuple | None:
        """The ``(min, max)`` sort-key bounds of ``field_name`` on this page.

        ``None`` when the page holds no live records or the component does not
        exist.  The bounds are cached per page and dropped wholesale whenever
        the page mutates (append or tombstone), so a stale zone can never
        over-prune — the map is recomputed from the live records on the next
        lookup.
        """
        zones = self._zones
        if zones is None:
            zones = self._zones = {}
        if field_name not in zones:
            keys = []
            for record in self._slots:
                if record is not None and record.schema.has_field(field_name):
                    keys.append(sort_key(record[field_name]))
            zones[field_name] = (min(keys), max(keys)) if keys else None
        return zones[field_name]

    def may_contain(self, field_name: str, op: str, value: Any) -> bool:
        """Whether some live record *could* satisfy ``field_name op value``.

        Conservative: ``True`` unless the zone map proves no record on this
        page can match.  Used by the pruned residual scan of the access-path
        layer; callers still test each record individually.
        """
        zone = self.zone(field_name)
        if zone is None:
            return False  # no live record can match anything
        low, high = zone
        target = sort_key(value)
        if op == "=":
            return low <= target <= high
        if op == "<":
            return low < target
        if op == "<=":
            return low <= target
        if op == ">":
            return high > target
        if op == ">=":
            return high >= target
        if op == "<>":
            return not (low == high == target)
        return True  # unknown operator: never prune

    def records(self) -> Iterator[Record]:
        """The live (non-tombstoned) records on this page."""
        for record in self._slots:
            if record is not None:
                yield record

    def live_count(self) -> int:
        """Number of live records."""
        return self._live

    def allocated(self) -> int:
        """Number of allocated slots (live + tombstoned)."""
        return len(self._slots)

    def __len__(self) -> int:
        return self.live_count()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Page({self.page_number}, {self.live_count()}/{self.capacity} live)"
