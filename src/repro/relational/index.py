"""Indexes and value lists.

Figure 2 of the paper declares indexes as ordinary relations whose elements
pair a component value with a reference, e.g.::

    ind_t_cnr : RELATION <tcnr,tref> OF
                RECORD tcnr : cnumbertype; tref : @timetable END;

built by ``ind_t_cnr := [<t.tcnr, @t> OF EACH t IN timetable: true]``.

This module provides two indexed representations of that association used by
the collection phase:

:class:`HashIndex`
    supports equality (and inequality) probes; the workhorse for building
    indirect joins over ``=`` join terms.
:class:`SortedIndex`
    keeps entries sorted by component value and supports range probes for
    ``<``, ``<=``, ``>``, ``>=`` join terms.

and the :class:`ValueList` of Section 4.4 (Strategy 4): the set of component
values of a quantified variable's range, optionally reduced to a single
minimum/maximum value when the connecting operator is an inequality.

An index is a pure function of its relation's elements, so a permanent one
is never maintained by writers: the catalog keeps a :class:`PermanentIndex`,
which holds no entries, and :func:`index_view` derives the index for the
contents version a pin sees.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.errors import RelationError
from repro.relational.record import Record
from repro.relational.reference import Ref, keys_of
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import compare_values, sort_key as _sort_key

__all__ = ["HashIndex", "PermanentIndex", "SortedIndex", "ValueList", "build_index", "index_view"]


class _Index:
    """What both organisations share: the indexed component and the tracker
    probes charge.  A subclass names its ``_PREFIX`` and starts its entries in
    ``_start_empty``."""

    def __init__(
        self,
        relation: Relation,
        field_name: str,
        tracker: AccessStatistics | None = None,
        name: str | None = None,
    ) -> None:
        if not relation.schema.has_field(field_name):
            raise RelationError(
                f"cannot index {relation.name!r} on unknown component {field_name!r}"
            )
        self.relation = relation
        self.field_name = field_name
        self.tracker = tracker if tracker is not None else relation.tracker
        self.name = name or f"{self._PREFIX}_{relation.name}_{field_name}"
        self._start_empty()

    #: The index class: all the catalog keeps of a permanent index's operator.
    organisation = property(type)

    @property
    def counts(self) -> tuple[int, int]:
        """Size and distinct values: what the access-path selector prices."""
        return len(self), self.distinct_values()

    def _rows(self, records: Iterable[Record] | None) -> list[tuple]:
        """The value rows to build from — by default one tracked scan."""
        return [record.values for record in (self.relation.scan() if records is None else records)]

    def with_tracker(self, tracker: AccessStatistics) -> "_Index":
        """This index — its attributes, its entries not copied — charging ``tracker``."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, tracker=tracker)
        return view


class HashIndex(_Index):
    """A hash index associating component values with references.

    Equivalent to the paper's index relations (Figure 2) but organised for
    constant-time equality probes.  The index can be *partial*: when built
    during the collection phase only for the elements satisfying the monadic
    terms of a conjunction (Strategy 2), or *permanent*: catalogued by the
    database and derived from the whole base relation (Example 3.1).
    """

    _PREFIX = "ind"

    def _start_empty(self) -> None:
        self._entries: dict[Any, list[Ref]] = {}
        self._size = 0

    # -- building ---------------------------------------------------------------

    def add_ref(self, value: Any, ref: Ref) -> None:
        """Add a pre-built ``(value, reference)`` entry."""
        self._entries.setdefault(value, []).append(ref)
        self._size += 1

    def build(self, records: Iterable[Record] | None = None) -> "HashIndex":
        """Populate the index from ``records`` — by default by scanning the
        indexed relation once.

        One bulk pass with the positions resolved up front, a third of the
        per-entry :meth:`add_ref` path's cost: pinned snapshots build their
        views with this on the read path.
        """
        relation = self.relation
        rows = self._rows(records)
        position = relation.schema.field_position(self.field_name)
        bucket = self._entries.setdefault
        for row, key in zip(rows, relation.schema.keys_of(rows)):
            bucket(row[position], []).append(Ref(relation, key))
        self._size += len(rows)
        return self

    # -- probing -----------------------------------------------------------------

    def probe(self, value: Any) -> list[Ref]:
        """References of elements whose indexed component equals ``value``."""
        entries = self._entries.get(value, [])
        if self.tracker is not None:
            self.tracker.record_index_probe(self.relation.name, len(entries))
        return list(entries)

    def probe_keys(self, op: str, value: Any) -> list[tuple]:
        """The element keys of :meth:`probe_operator`'s references, under the same
        charge — the bulk read's form of a probe: an ``=`` bucket is read, not copied."""
        if op != "=":
            return list(keys_of(self.probe_operator(op, value)))
        entries = self._entries.get(value, ())
        if self.tracker is not None:
            self.tracker.record_index_probe(self.relation.name, len(entries))
        return list(keys_of(entries))

    def probe_not_equal(self, value: Any) -> list[Ref]:
        """References of elements whose indexed component differs from ``value``."""
        result: list[Ref] = []
        for entry_value, refs in self._entries.items():
            if entry_value != value:
                result.extend(refs)
        if self.tracker is not None:
            self.tracker.record_index_probe(self.relation.name, len(result))
        return result

    def probe_operator(self, op: str, value: Any) -> list[Ref]:
        """References of elements whose indexed component satisfies ``component op value``."""
        if op == "=":
            return self.probe(value)
        if op == "<>":
            return self.probe_not_equal(value)
        result: list[Ref] = []
        for entry_value, refs in self._entries.items():
            if compare_values(op, entry_value, value):
                result.extend(refs)
        if self.tracker is not None:
            self.tracker.record_index_probe(self.relation.name, len(result))
        return result

    # -- inspection ----------------------------------------------------------------

    def values(self) -> Iterator[Any]:
        """Distinct indexed component values."""
        return iter(self._entries.keys())

    def entries(self) -> Iterator[tuple[Any, Ref]]:
        """All ``(value, reference)`` pairs."""
        for value, refs in self._entries.items():
            for ref in refs:
                yield value, ref

    def __len__(self) -> int:
        return self._size

    def distinct_values(self) -> int:
        """Number of distinct indexed values."""
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"HashIndex({self.name!r}, {self._size} entries, "
            f"{len(self._entries)} distinct values)"
        )


class SortedIndex(_Index):
    """An order-preserving index for range probes.

    The collection phase prefers a :class:`SortedIndex` when the dyadic join
    term uses one of ``<``, ``<=``, ``>``, ``>=`` because a range probe then
    touches only the qualifying entries.
    """

    _PREFIX = "sorted"

    def _start_empty(self) -> None:
        self._pairs: list[tuple[Any, Ref]] = []
        # The sort key of every pair, position by position: a probe bisects
        # this list instead of re-deriving the keys from the pairs.
        self._keys: list[Any] = []
        self._sorted = True
        # Distinct-value count, taken once per sort.
        self._distinct = 0

    def add_ref(self, value: Any, ref: Ref) -> None:
        """Add a pre-built ``(value, reference)`` entry: appended unsorted,
        the list is ordered once on the first probe (O(n log n) builds)."""
        self._keys.append(_sort_key(value))
        self._pairs.append((value, ref))
        self._sorted = False

    def build(self, records: Iterable[Record] | None = None) -> "SortedIndex":
        """Populate from ``records`` (by default one scan), then sort — in
        bulk, as :meth:`HashIndex.build`."""
        relation = self.relation
        rows = self._rows(records)
        position = relation.schema.field_position(self.field_name)
        for row, key in zip(rows, relation.schema.keys_of(rows)):
            value = row[position]
            self._keys.append(_sort_key(value))
            self._pairs.append((value, Ref(relation, key)))
        if rows:
            self._sorted = False
        self._ensure_sorted()
        return self

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            keys, pairs = self._keys, self._pairs
            order = sorted(range(len(keys)), key=keys.__getitem__)  # stable
            self._keys = [keys[i] for i in order]
            self._pairs = [pairs[i] for i in order]
            self._distinct = len(set(map(itemgetter(0), self._pairs)))
            self._sorted = True

    def probe_operator(self, op: str, value: Any) -> list[Ref]:
        """References of elements whose indexed component satisfies ``component op value``."""
        return [ref for _, ref in self._probed(op, value)]

    def probe_keys(self, op: str, value: Any) -> list[tuple]:
        """The element keys of :meth:`probe_operator`'s references, under the same charge."""
        return list(keys_of(map(itemgetter(1), self._probed(op, value))))

    def _probed(self, op: str, value: Any) -> list[tuple[Any, Ref]]:
        self._ensure_sorted()
        keys = self._keys
        target = _sort_key(value)
        if op == "<":
            selected = self._pairs[: bisect.bisect_left(keys, target)]
        elif op == "<=":
            selected = self._pairs[: bisect.bisect_right(keys, target)]
        elif op == ">":
            selected = self._pairs[bisect.bisect_right(keys, target):]
        elif op == ">=":
            selected = self._pairs[bisect.bisect_left(keys, target):]
        elif op == "=":
            low = bisect.bisect_left(keys, target)
            high = bisect.bisect_right(keys, target)
            selected = self._pairs[low:high]
        elif op == "<>":
            low = bisect.bisect_left(keys, target)
            high = bisect.bisect_right(keys, target)
            selected = self._pairs[:low] + self._pairs[high:]
        else:
            raise RelationError(f"unknown comparison operator {op!r}")
        if self.tracker is not None:
            self.tracker.record_index_probe(self.relation.name, len(selected))
        return selected

    def minimum(self) -> Any:
        """Smallest indexed value (``None`` when empty)."""
        self._ensure_sorted()
        return self._pairs[0][0] if self._pairs else None

    def maximum(self) -> Any:
        """Largest indexed value (``None`` when empty)."""
        self._ensure_sorted()
        return self._pairs[-1][0] if self._pairs else None

    def __len__(self) -> int:
        return len(self._pairs)

    def distinct_values(self) -> int:
        """Number of distinct indexed values."""
        self._ensure_sorted()
        return self._distinct

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"SortedIndex({self.name!r}, {len(self._pairs)} entries)"


class ValueList:
    """The value list of Strategy 4 (Section 4.4).

    When a quantifier is evaluated in the collection phase, the inner
    relation is read once and only the *component values* referenced by the
    connecting dyadic join term are retained.  The paper's two shortcuts are
    implemented here:

    * for ``<``/``<=``/``>``/``>=`` join terms only one value needs to be
      stored — the maximum for ``SOME`` and the minimum for ``ALL`` (and
      symmetrically for the reversed operators);
    * for ``ALL`` combined with ``=`` (and ``SOME`` combined with ``<>``) at
      most one distinct value matters: with two or more distinct values the
      outcome of the quantified subformula is already known.
    """

    def __init__(self, values: Iterable[Any] | None = None) -> None:
        self._values: set[Any] = set()
        self._count = 0
        # (minimum, maximum, single value) of a non-empty list, worked out at
        # the first question after the last ``add``: a finished list answers
        # every outer element from here — "only one value needs to be stored".
        self._extremes: tuple | None = None
        if values is not None:
            for value in values:
                self.add(value)

    def add(self, value: Any) -> None:
        """Record one component value of the quantified variable's range."""
        self._values.add(value)
        self._count += 1
        self._extremes = None

    def _summary(self, what: str) -> tuple:
        extremes = self._extremes
        if extremes is None:
            values = self._values
            if not values:
                raise RelationError(f"{what} of an empty value list")
            single = next(iter(values)) if len(values) == 1 else None
            extremes = self._extremes = (min(values), max(values), single)
        return extremes

    # -- inspection ----------------------------------------------------------------

    @property
    def values(self) -> frozenset:
        """The distinct values collected."""
        return frozenset(self._values)

    def is_empty(self) -> bool:
        """Whether the quantified range contributed no values at all."""
        return not self._values

    def distinct_count(self) -> int:
        return len(self._values)

    def minimum(self) -> Any:
        return self._summary("minimum")[0]

    def maximum(self) -> Any:
        return self._summary("maximum")[1]

    def single_value(self) -> Any | None:
        """The unique value when exactly one distinct value was collected."""
        return self._summary("single value")[2] if self._values else None

    # -- quantified evaluation -------------------------------------------------------

    def satisfies_some(self, op: str, outer_value: Any) -> bool:
        """Whether ``SOME v IN range (outer_value op v.component)`` holds."""
        if not self._values:
            return False
        if op in ("<", "<="):
            return compare_values(op, outer_value, self.maximum())
        if op in (">", ">="):
            return compare_values(op, outer_value, self.minimum())
        if op == "=":
            return outer_value in self._values
        if op == "<>":
            single = self.single_value()
            if single is None:
                return True
            return outer_value != single
        raise RelationError(f"unknown comparison operator {op!r}")

    def satisfies_all(self, op: str, outer_value: Any) -> bool:
        """Whether ``ALL v IN range (outer_value op v.component)`` holds.

        An empty value list means the range is empty, so the universal
        quantifier holds vacuously (Lemma 1 rule 3 treats that case before
        evaluation; this method mirrors the logic for safety).
        """
        if not self._values:
            return True
        if op in ("<", "<="):
            return compare_values(op, outer_value, self.minimum())
        if op in (">", ">="):
            return compare_values(op, outer_value, self.maximum())
        if op == "=":
            single = self.single_value()
            if single is None:
                return False
            return outer_value == single
        if op == "<>":
            return outer_value not in self._values
        raise RelationError(f"unknown comparison operator {op!r}")

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._values

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ValueList({sorted(self._values, key=_sort_key)!r})"


def build_index(
    relation: Relation,
    field_name: str,
    operator: str = "=",
    tracker: AccessStatistics | None = None,
) -> HashIndex | SortedIndex:
    """Build the index best suited to probing with ``operator``.

    Equality and inequality operators get a :class:`HashIndex`; ordering
    operators get a :class:`SortedIndex`.  In both cases the relation is
    scanned exactly once, which is what Strategy 1 requires.
    """
    if operator in ("=", "<>"):
        return HashIndex(relation, field_name, tracker=tracker).build()
    return SortedIndex(relation, field_name, tracker=tracker).build()


class PermanentIndex:
    """A permanent index as the catalog keeps it — no entries: the organisation,
    the name, the slot pins share one view per contents version through
    (``(version, view)``, or ``(version, None)``: a read met that version and
    scanned) and the counts of the last build, which price an unbuilt view."""

    def __init__(self, build: HashIndex | SortedIndex, version: int) -> None:
        self.organisation = build.organisation
        self.relation = build.relation
        self.field_name = build.field_name
        self.name = build.name
        self.counts = build.counts
        self.snapshot_view: tuple[int, Any] | None = (version, build)


def index_view(
    catalogued: PermanentIndex,
    relation: Relation,
    tracker: AccessStatistics,
    publish: bool,
    tracked: bool = True,
) -> HashIndex | SortedIndex:
    """The catalogued index over a pin's view of its relation, at the version
    the pin captured: the one rule every reader derives a permanent index by.

    The view the slot holds at that version is shared (:meth:`with_tracker`);
    otherwise one is built — by a tracked scan, or untracked when not
    ``tracked`` (the engine door's ready pin) — its counts become the
    catalog's, and with ``publish`` it goes into the slot unless a newer
    version's is there.
    """
    version = relation._version
    slot = catalogued.snapshot_view
    if slot is not None and slot[0] == version and slot[1] is not None:
        return slot[1].with_tracker(tracker)
    view = catalogued.organisation(
        relation, catalogued.field_name, tracker=tracker, name=catalogued.name
    )
    view.build(None if tracked else relation.elements())
    catalogued.counts = view.counts
    if publish and (slot is None or slot[0] <= version):
        catalogued.snapshot_view = (version, view)
    return view
