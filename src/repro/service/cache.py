"""A thread-safe LRU cache for compiled query plans.

The cache amortizes the compile-time pipeline (tokenizing, parsing, type
checking, the Section 2-3 transformations) across executions of the same
query *shape*.  Keys are built by :class:`~repro.service.QueryService` from:

* the query's shape — :func:`repro.lang.lexer.scan_shape`: the text's
  lexemes (so whitespace, comments and keyword case do not fragment the
  cache) with every constant operand replaced by a placeholder, so texts that
  differ only in their constants share one entry, whose plan was compiled
  with the constants lifted to positional parameters (a text the lifted form
  does not fit is keyed on its token stream, constants and all) — or the
  calculus selection itself,
* the :class:`~repro.config.StrategyOptions` the plan was prepared under, and
* the database's ``schema_version`` (bumped on every catalog mutation — the
  invalidation rule: any ``create_relation`` / ``drop_relation`` /
  ``create_index`` / ``drop_index`` orphans all older entries).

Emptiness is not part of the key: a hit is validated against it
(``lookup(validate=...)``, the plan's ``PreparedQuery.is_stale``).  The
Lemma 1 adaptation is the only part of plan compilation that depends on the
data, and it depends only on which range relations are empty, so a plan is
safely reusable until a relation it ranges over transitions between empty
and non-empty; the recompiled plan then overwrites the entry.

Hit/miss counts are recorded in the
:class:`~repro.relational.statistics.AccessStatistics` of the state the
request runs on (``plan_cache_hits`` / ``plan_cache_misses``), next to the
paper's access counters: a pin's private tracker, which its release folds
into the database's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro.errors import PlanError

__all__ = ["BoundedLRU", "PlanCache"]


class BoundedLRU:
    """A small thread-safe bounded LRU mapping.

    The single LRU implementation behind the plan cache, the per-prepared-
    query bound-plan and collection memos and the service's text-key memo —
    so eviction and locking behave identically everywhere.  ``capacity`` 0
    stores nothing (every put evicts immediately).

    With ``second_sighting`` a key not held is stored on its second put (a
    held key is replaced at once); the first leaves its hash in a doorkeeper:
    two generations of at most ``capacity`` hashes, in dicts of integers the
    garbage collector does not track.
    """

    def __init__(self, capacity: int, second_sighting: bool = False) -> None:
        self.capacity = max(capacity, 0)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self._rents = second_sighting
        self._young: dict[int, None] = {}
        self._old: dict[int, None] = {}

    def get(self, key: Hashable):
        """The entry for ``key`` (refreshed as most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: object) -> None:
        with self._lock:
            if self._rents and key not in self._entries and self._first_sighting(key):
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _first_sighting(self, key: Hashable) -> bool:
        """Whether ``key`` was not put before — remembering that it now was."""
        digest = hash(key)
        if digest in self._young or digest in self._old:
            return False
        if len(self._young) >= self.capacity:
            self._young, self._old = {}, self._young
        self._young[digest] = None
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache:
    """A bounded mapping from plan keys to prepared queries, LRU-evicted.

    ``capacity`` 0 disables caching: every lookup misses and every store is
    dropped (mirroring ``ServiceOptions.collection_cache_size`` semantics).
    A plan is stored on its first sighting: a compile costs milliseconds.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise PlanError(f"plan cache capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._entries = BoundedLRU(capacity)
        self._hits = 0
        self._misses = 0
        self._counter_lock = threading.Lock()

    def lookup(self, key: Hashable, validate=None, statistics=None):
        """The cached entry for ``key``, or ``None`` — recording hit or miss.

        ``validate``, when given, is called with the found entry; a falsy
        result treats the lookup as a miss (the caller will recompile and
        overwrite the entry), e.g. the service validating a plan's
        emptiness signature.

        Counts go two places: the cache's own monotonic counters (reported
        by :meth:`info`) and ``statistics``, the tracker of the execution
        the lookup serves, so its ``plan_cache_hits`` / ``plan_cache_misses``
        sit next to that execution's other counters.
        """
        entry = self._entries.get(key)
        if entry is not None and validate is not None and not validate(entry):
            entry = None
        with self._counter_lock:
            if entry is not None:
                self._hits += 1
            else:
                self._misses += 1
            if statistics is not None:
                statistics.record_plan_cache(hit=entry is not None)
        return entry

    def store(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` under ``key``, evicting the least recently used."""
        self._entries.put(key, entry)

    def invalidate(self) -> None:
        """Drop every cached entry (e.g. the version epoch moved on)."""
        self._entries.clear()

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def info(self) -> dict:
        """A snapshot for monitoring: size, capacity, hits, misses, evictions."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
