"""The PASCAL/R ``RELATION`` data type.

A :class:`Relation` is a variable-sized set of identically structured elements
(:class:`~repro.relational.record.Record`) with key-based identity, exactly as
declared in Figure 1 of the paper.  It supports the PASCAL/R operators used in
the paper's examples:

=====================  ======================================
paper                  this library
=====================  ======================================
``rel := [...]``       :meth:`Relation.assign`
``rel :+ [...]``       :meth:`Relation.insert` / :meth:`Relation.insert_all`
``rel :- [...]``       :meth:`Relation.delete`
``rel[keyval]``        ``rel[keyval]`` (a *selected variable*)
``@rel[keyval]``       :meth:`Relation.ref`
``FOR EACH r IN rel``  :meth:`Relation.scan` (access-counted iteration)
=====================  ======================================

Relations are also used for the intermediate structures of Figure 2 (single
lists, indirect joins, indexes), in which case the component types are
reference types; nothing in this class distinguishes the two uses.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import (
    DuplicateKeyError,
    MissingElementError,
    SchemaError,
    TransactionError,
    ValidationError,
)
from repro.relational.record import Record, records_of
from repro.relational.reference import Ref
from repro.relational.statistics import AccessStatistics
from repro.types.schema import RelationSchema

__all__ = ["Relation"]


class Relation:
    """A keyed set of records.

    Parameters
    ----------
    name:
        Relation variable name (used in statistics and diagnostics).
    schema:
        The element schema, including the key component list.
    elements:
        Optional initial contents; any iterable of records or mappings.
    tracker:
        Optional :class:`AccessStatistics` receiving scan / element-read
        counters.  Base database relations get a tracker from their
        :class:`~repro.relational.database.Database`; intermediate relations
        usually go untracked.
    """

    def __init__(
        self,
        name: str,
        schema: RelationSchema,
        elements: Iterable[Record | Mapping[str, Any] | tuple] | None = None,
        tracker: AccessStatistics | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.tracker = tracker
        self._elements: dict[tuple, Record] = {}
        # The undo journal of the active session transaction, if any
        # (attached by Database.begin_transaction).  Mutation operators log
        # themselves through its before_mutation hook and tell it what the
        # key they change held, so rollback can set every key back.
        # Intermediate result relations are never journaled: the slot stays
        # None outside a transaction, one is-None test per mutation.
        self._journal = None
        # Snapshot coordination (attached by Database when the relation is
        # registered in a catalog).  Writers consult the registry before any
        # element-dict write so pinned snapshot views stay immutable; the
        # epoch records when this relation's dict was last (re)bound, so a
        # copy happens at most once per pin generation.  Intermediate result
        # relations stay unregistered: one is-None test per mutation.
        self._registry = None
        self._cow_epoch = 0
        # Monotonic per-relation contents version (bumped by every mutation).
        # Snapshot executions use it as a relation-granular validity token:
        # a collection structure computed over version V of every relation it
        # read stays reusable while those versions stand, no matter how busy
        # the rest of the database is.  On a registered relation the bump
        # happens inside the same registry-locked section as the dict write,
        # so a concurrent pin can never pair new contents with the old
        # version (or vice versa).
        self._version = 0
        # Intermediate (reference) relations use key = all components, in
        # which case the key tuple *is* the value tuple — the algebra kernels
        # exploit this to skip key extraction entirely.
        self._key_is_all = schema.key == schema.field_names
        if elements is not None:
            self.insert_all(elements)

    # -- construction helpers --------------------------------------------------

    def _as_record(self, element: Record | Mapping[str, Any] | tuple) -> Record:
        if isinstance(element, Record):
            if element.schema.field_names != self.schema.field_names:
                raise SchemaError(
                    f"record with components {element.schema.field_names} cannot be "
                    f"stored in relation {self.name!r} with components "
                    f"{self.schema.field_names}"
                )
            return element
        return Record(self.schema, element)

    def empty_copy(self, name: str | None = None) -> "Relation":
        """A new, empty relation with the same schema."""
        return Relation(name or self.name, self.schema, tracker=self.tracker)

    def copy(self, name: str | None = None) -> "Relation":
        """A shallow copy containing the same elements."""
        clone = self.empty_copy(name)
        clone._elements = dict(self._elements)
        return clone

    # -- snapshot copy-on-write -----------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Coordinate this relation's mutations with snapshot pins.

        Called by the database when the relation enters a catalog, while
        holding ``registry.lock`` (concurrent pins iterate the catalog under
        that lock, and this method reads the pin epoch).  The current dict
        cannot be held by any existing snapshot (the relation was not in the
        catalog when they pinned), so the copy-on-write epoch starts at the
        registry's current pin epoch.
        """
        self._registry = registry
        self._cow_epoch = registry.epoch

    def _prepare_write_locked(self, registry) -> None:
        """Make ``self._elements`` safe to mutate; caller holds ``registry.lock``.

        One trigger, **copy-on-write**: a live snapshot may hold the current
        dict (it was captured since the last rebind), so the write goes to a
        fresh copy instead.  A transaction's writes need nothing more — what
        pins taken mid-transaction read is rebuilt from the journal's
        before-values when such a pin arrives (see mvcc.py).
        """
        if registry.active and self._cow_epoch < registry.epoch:
            self._elements = dict(self._elements)
            self._cow_epoch = registry.epoch

    def _rebind_elements(self, new: dict) -> None:
        """Replace the element dict wholesale (``assign`` / ``clear``).

        A rebind never copies — the old dict is simply left to whichever
        snapshots (and, inside a transaction, whichever journal) captured
        it.  The contents-version bump rides in the same locked section as
        the swap, so a pin never sees the new dict under the old version.
        """
        registry = self._registry
        if registry is None:
            self._elements = new
            self._version += 1
            return
        with registry.lock:
            self._elements = new
            self._version += 1
            self._cow_epoch = registry.epoch

    # -- transactional journaling ---------------------------------------------------

    def begin_journal(self, journal) -> None:
        """Attach the undo journal of an opening transaction.

        Only a catalogued relation is journaled: the journal records its
        before-values under the registry lock the relation's writes take.
        """
        if self._journal is not None and self._journal is not journal:
            raise TransactionError(
                f"relation {self.name!r} is already journaled by another transaction"
            )
        if self._registry is None:
            raise TransactionError(
                f"relation {self.name!r} belongs to no database and cannot be journaled"
            )
        self._journal = journal

    def end_journal(self) -> None:
        """Detach the active undo journal (commit or pre-rollback)."""
        self._journal = None

    # -- update operators --------------------------------------------------------

    def assign(self, elements: Iterable[Record | Mapping[str, Any] | tuple]) -> "Relation":
        """The PASCAL/R assignment ``rel := [...]`` — replace all elements."""
        journal = self._journal
        if journal is not None:
            # One journal entry for the whole assignment; the per-element
            # inserts below must not journal themselves on top of it.  The
            # new contents are materialised (and coerced) up front so the
            # redo op can carry the complete image.
            elements = [self._as_record(element) for element in elements]
            journal.before_mutation(self, "assign", elements)
            self._journal = None
        try:
            self._rebind_elements({})
            if self.tracker is not None:
                self.tracker.record_mutation()
            self.insert_all(elements)
        finally:
            self._journal = journal
        return self

    def insert(self, element: Record | Mapping[str, Any] | tuple) -> Record:
        """The PASCAL/R insert operator ``:+`` for a single element.

        Inserting an element that is already present is a no-op (set
        semantics); inserting a *different* element under an existing key is
        a key violation and raises :class:`DuplicateKeyError`.
        """
        record = self._as_record(element)
        key = self.schema.key_of(record.values)
        existing = self._elements.get(key)
        if existing is not None:
            if existing == record:
                return existing
            raise DuplicateKeyError(
                f"relation {self.name!r} already holds a different element with key {key}"
            )
        journal = self._journal
        if journal is not None:
            journal.before_mutation(self, "insert", record)
        registry = self._registry
        if registry is None:
            self._elements[key] = record
            self._version += 1
        else:
            with registry.lock:
                if journal is not None:
                    journal.remember(self, key, None)
                self._prepare_write_locked(registry)
                self._elements[key] = record
                self._version += 1
        if self.tracker is not None:
            self.tracker.record_insert(self.name)
        return record

    def insert_all(self, elements: Iterable[Record | Mapping[str, Any] | tuple]) -> None:
        """Insert every element of ``elements`` (the ``:+`` of a set literal)."""
        for element in elements:
            self.insert(element)

    def insert_raw(self, record: Record) -> Record:
        """No-coerce, no-tracker insert of an already-validated record.

        Internal fast path for the relational algebra kernels, which build
        fresh result relations whose key covers all components: duplicate
        values collapse by dict semantics, so no key-violation check is
        needed.  Callers with a proper (partial) key must use
        :meth:`insert` instead.
        """
        values = record.values
        key = values if self._key_is_all else self.schema.key_of(values)
        journal = self._journal
        if journal is not None:
            journal.before_mutation(self, "insert", record)
        registry = self._registry
        if registry is None:
            self._elements[key] = record
            self._version += 1
        else:
            with registry.lock:
                if journal is not None:
                    journal.remember(self, key, self._elements.get(key))
                self._prepare_write_locked(registry)
                self._elements[key] = record
                self._version += 1
        return record

    def insert_new_rows(self, rows: Iterable[tuple]) -> list[Record]:
        """Store the value rows this relation does not hold yet; return their records.

        The bulk path into a fresh result relation (key = all components, no
        index, no registry): ``rows`` are already-coerced value tuples and
        their own keys; the first witness of each row not met before is
        stored, in arrival order.
        """
        unmet = filterfalse(self._elements.__contains__, dict.fromkeys(rows))
        return self.insert_rows(unmet)

    def insert_rows(self, rows: Iterable[tuple]) -> list[Record]:
        """:meth:`insert_new_rows` with no duplicate pass: every row's record, in order.
        The caller knows the rows are new or takes no record; a row held already
        keeps its place, its record replaced by an equal one."""
        assert self._key_is_all, f"{self.name}: insert_rows needs key = all components"
        assert self._registry is None, f"{self.name}: not a result"
        rows = list(rows)
        records = records_of(self.schema, rows)
        self._elements.update(zip(rows, records))
        self._version += 1
        return records

    def delete(self, element: Record | Mapping[str, Any] | tuple) -> bool:
        """The PASCAL/R delete operator ``:-`` for a single element.

        Returns ``True`` when an element was removed.
        """
        if isinstance(element, Record) or isinstance(element, Mapping):
            record = self._as_record(element)
            key = self.schema.key_of(record.values)
        else:
            key = tuple(element)
        return self.delete_key(key)

    def delete_key(self, key: tuple | Any) -> bool:
        """Remove the element identified by ``key``; return ``True`` if present."""
        if not isinstance(key, tuple):
            key = (key,)
        if key not in self._elements:
            key = self._respelled(key)
            if key is None:
                return False
        return self._remove(key)

    def _remove(self, key: tuple) -> bool:
        """Remove the element stored under ``key`` (its stored spelling)."""
        journal = self._journal
        if journal is not None:
            journal.before_mutation(self, "delete", key)
        registry = self._registry
        if registry is None:
            removed_record = self._elements.pop(key, None)
            if removed_record is not None:
                self._version += 1
        else:
            with registry.lock:
                if journal is not None:
                    journal.remember(self, key, self._elements.get(key))
                self._prepare_write_locked(registry)
                removed_record = self._elements.pop(key, None)
                if removed_record is not None:
                    self._version += 1
        removed = removed_record is not None
        if removed and self.tracker is not None:
            self.tracker.record_delete(self.name)
        return removed

    def clear(self) -> None:
        """Remove every element."""
        if self._journal is not None:
            self._journal.before_mutation(self, "clear")
        if self._registry is None:
            self._elements.clear()
            self._version += 1
        else:
            # Rebind instead of clearing in place: a pinned snapshot may
            # hold the old dict.
            self._rebind_elements({})
        if self.tracker is not None:
            self.tracker.record_mutation()

    # -- selected variables and references -----------------------------------------

    def _respelled(self, key: tuple) -> tuple | None:
        """The stored spelling of a key that just missed, or ``None``.

        Miss path only.  Elements are stored under the canonical (coerced)
        form of their key, but a caller may spell a component any way its
        type accepts — a packed char array without its blank padding, an
        enumeration value by its label.  Every lookup tries the key as
        given first, which is what the engine passes and costs nothing
        extra; only a miss retries under the canonical form, so ``find``,
        ``delete_key`` and friends agree with ``delete`` (which coerces the
        whole element) on what a key denotes.
        """
        try:
            canonical = self.schema.canonical_key(key)
        except ValidationError:
            return None
        return canonical if canonical in self._elements else None

    def find(self, key: tuple | Any) -> Record | None:
        """The element with key ``key`` or ``None``."""
        if not isinstance(key, tuple):
            key = (key,)
        record = self._elements.get(key)
        if record is None:
            key = self._respelled(key)
            if key is not None:
                record = self._elements.get(key)
        return record

    def fetch(self, key: tuple | Any) -> Record | None:
        """Fetch one element by key, in any spelling, with access accounting
        (one element read); ``None`` on a miss."""
        record = self.find(key)
        if record is not None and self.tracker is not None:
            self.tracker.record_element_read(self.name)
        return record

    def find_many(self, keys: list[tuple]) -> list[Record]:
        """The elements under ``keys``, untracked: :meth:`Ref.deref` in bulk (one
        comprehension over the element dict), :class:`DanglingReferenceError` included."""
        elements = self._elements
        try:
            return [elements[key] for key in keys]
        except KeyError:  # a key in another spelling, or a deleted element
            return [Ref(self, key).deref() for key in keys]

    def fetch_many(self, keys: list[tuple]) -> list[Record]:
        """:meth:`find_many` with access accounting — one element read per key,
        charged at once: what an index probe's keys are read through."""
        records = self.find_many(keys)
        if self.tracker is not None:
            self.tracker.record_element_read(self.name, len(records))
        return records

    def __getitem__(self, key: tuple | Any) -> Record:
        """The *selected variable* ``rel[keyval]`` of Section 3.1."""
        record = self.find(key)
        if record is None:
            raise MissingElementError(
                f"{self.name}[{key}] does not denote an element"
            )
        return record

    def ref(self, key: tuple | Any) -> Ref:
        """The *reference* ``@rel[keyval]`` of Section 3.1."""
        if not isinstance(key, tuple):
            key = (key,)
        if key not in self._elements:
            stored = self._respelled(key)
            if stored is None:
                raise MissingElementError(
                    f"cannot form @{self.name}[{key}]: no such element"
                )
            key = stored
        return Ref(self, key)

    def ref_of(self, record: Record) -> Ref:
        """The reference ``@r`` for an element variable ``r`` (shorthand ``@rel[r.key]``)."""
        return Ref(self, self.schema.key_of(record.values))

    def refs(self) -> Iterator[Ref]:
        """References to every element (in insertion order)."""
        for key in self._elements:
            yield Ref(self, key)

    # -- iteration ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Record]:
        """Untracked iteration over the elements (insertion order)."""
        return iter(self._elements.values())

    def scan(self) -> Iterator[Record]:
        """The paper's ``FOR EACH r IN rel`` — iteration with access accounting.

        Every call counts as one sequential scan of the relation; every
        element yielded counts as one element read.
        """
        if self.tracker is not None:
            self.tracker.record_scan(self.name)
            for record in list(self._elements.values()):
                self.tracker.record_element_read(self.name)
                yield record
        else:
            yield from list(self._elements.values())

    def elements(self) -> list[Record]:
        """All elements as a list (untracked)."""
        return list(self._elements.values())

    def keys(self) -> list[tuple]:
        """All key values (insertion order)."""
        return list(self._elements.keys())

    # -- predicates ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def cardinality(self) -> int:
        """Number of elements (the paper's main cost driver)."""
        return len(self._elements)

    def is_empty(self) -> bool:
        """Whether the relation is the empty relation ``[]`` of Lemma 1."""
        return not self._elements

    def __contains__(self, element: object) -> bool:
        if isinstance(element, Record):
            key = self.schema.key_of(element.values)
            stored = self._elements.get(key)
            return stored == element
        key = element if isinstance(element, tuple) else (element,)
        return key in self._elements or self._respelled(key) is not None

    def contains_key(self, key: tuple | Any) -> bool:
        """Whether an element with key ``key`` exists."""
        return self.find(key) is not None

    # -- value semantics --------------------------------------------------------------

    def to_set(self) -> frozenset[Record]:
        """The set of elements; the canonical value of the relation."""
        return frozenset(self._elements.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.field_names == other.schema.field_names
            and self.to_set() == other.to_set()
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are mostly unhashed
        return hash((self.schema.field_names, self.to_set()))

    def __repr__(self) -> str:
        preview = ", ".join(repr(r) for r in list(self._elements.values())[:3])
        suffix = ", ..." if len(self._elements) > 3 else ""
        return f"Relation({self.name!r}, {len(self._elements)} elements: [{preview}{suffix}])"

    def show(self, limit: int | None = None) -> str:
        """A small textual table of the relation contents, for examples and docs."""
        names = self.schema.field_names
        rows = [tuple(str(v).rstrip() if isinstance(v, str) else str(v) for v in rec.values)
                for rec in self._elements.values()]
        if limit is not None:
            rows = rows[:limit]
        widths = [len(n) for n in names]
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        separator = "-+-".join("-" * w for w in widths)
        body = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
        lines = [header, separator] + body
        if limit is not None and len(self._elements) > limit:
            lines.append(f"... ({len(self._elements) - limit} more)")
        return "\n".join(lines)
