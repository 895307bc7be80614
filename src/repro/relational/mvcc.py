"""Multi-version snapshot reads: pinned copy-on-write relation views.

Every read through the front door runs on a pin, so one query reads one
database state — the construction phase dereferences what the collection
phase collected from the same state — and readers need no lock.  The scheme
works at relation-dict granularity:

**Pin rule.**  A reader pins a snapshot: under the registry lock it captures,
for every base relation, a reference to the relation's current element dict
(or, for a relation the active transaction has touched, its *committed*
image — see the overlay below), together with the committed ``data_version``
and ``schema_version``.  Outside a transaction pinning copies nothing; it is
O(relations), and the read-only view of a relation is built only when the
query first reads it — from the dict captured here, never the live one.

**Copy-on-write rule.**  Writers never mutate a dict a live snapshot may
hold.  Every element-dict write on a registered relation runs under the
registry lock and first consults :meth:`SnapshotRegistry` state: if any
snapshot is active and the relation's dict was captured since its last
rebind (``_cow_epoch < registry.epoch``), the writer copies the dict and
swaps the copy in before writing.  Pinned dicts are thereafter immutable by
construction; readers iterate them without any locking at all.

**Committed overlay.**  Snapshot reads must not see uncommitted transaction
state.  A transaction writes its relations' live dicts in place (subject
only to the copy-on-write rule) and its undo journal remembers, per touched
key, what the key held before (:mod:`repro.relational.journal`).  Those
before-values are absolute, so the committed contents of a touched relation
can be rebuilt at any moment — ``dict(live)`` with every before-value set
back — and the reader that pins mid-transaction is the one who pays for it:
:meth:`SnapshotRegistry.pin` asks the journal for the image the first time a
pin meets a touched relation and keeps it in the registry's overlay, so the
cost is one dict copy per touched relation per transaction *that a reader
actually pinned into*, and nothing for a transaction no reader saw.  (A
relation the transaction assigned or cleared needs no copy at all: the
journal holds its committed dict by reference.)  Such pins report the
``data_version`` recorded when the transaction began and the relation's
committed contents version.  Writes record their before-value in the same
locked section as the dict write, so a pin never reads a map that is
growing, and never sees a write without its before-value.  Commit or
rollback completion clears the overlay and re-reads the committed version,
so the next pin sees the new (or restored) state.

Consistency granularity is the transaction: a pin taken at any point during
a writer's transaction observes exactly the pre-transaction contents and
version of every relation.  (Non-transactional mutations are applied
atomically per element — a pin between two such mutations sees a prefix.)

**Statement pins.**  A pin taken with the open transaction's own journal
captures the live dicts — the transaction's writes so far — and skips the
overlay; later writes copy on write as anyone's do.  Such a pin
(``in_transaction``) reads the shared slots and memos, whose tokens are
exact, and publishes to none of them; and a committed pin holding an
overlay image waives the writer's copy only while no statement pin, which
may hold the live dict, is live (``own_pins``).

**Index view rule.**  An index is a pure function of its relation's
elements — Figure 2's ``[<t.tcnr, @t> OF EACH t IN timetable: true]`` — and
relations are keyed: a pinned element dict *is* the primary-key map.  So no
writer maintains an index, the catalog keeps none of its entries
(:class:`~repro.relational.index.PermanentIndex`), and every reader — the
engine door reads a pin too — derives the one it needs for the contents
version it sees by one rule, :func:`~repro.relational.index.index_view`.  A
pin keeps the index catalog it found (index DDL replaces the catalog dict,
never mutates it) and answers ``index_for`` with an ordinary
:class:`~repro.relational.index.HashIndex` /
:class:`~repro.relational.index.SortedIndex` over its own pinned dict.  A
finished view is published in one slot on the catalog entry under the
relation's captured contents version — the token the collection memo
already trusts: two pins agreeing on it hold equal contents — and every pin
keeps the views it used, so it resolves each at most once.
``create_index`` publishes its own build there, at the creation version.
Later pins at that version copy the view's attribute dict — sharing the
entries — with their own tracker in it.  The slot is written by one
assignment of a finished object, so the read path takes no lock: racing
builders waste work, never corrupt, and a pin older than the slot builds
privately and leaves it alone.  Releasing a pin drops the slots the
committed contents have moved past.

**Who pays the build.**  Building a view reads every element once and
costs about what the filtered scan it replaces costs, so it only pays when
the contents outlive the read that builds it.  ``index_for`` is an explicit
request and always builds.  The access-path selector asks
``index_candidate`` instead: a view that exists at the pin's version is on
offer at its probe price; one that does not is priced build + probe, which
never undercuts the scan, so the first execution to meet a new version scans
— exactly what it cost before views existed — and leaves ``(version, None)``
in the slot.  An execution that finds that note knows the version has
already outlived one read and builds (rent once, then buy: never worse than
twice the best choice in hindsight, whatever the write rate).  A relation
written between every two reads is therefore scanned, one read many times is
probed.  The engine door's pin is *ready*: every candidate is on offer at
zero reads and a missing view is built untracked, so Section 3.2's "omitted,
if permanent indexes exist" decides there.

**Value list rule.**  A Strategy 4 value list holds component *values*, no
references, so it is a pure function of (the derived predicate with its
constants bound, the contents of the relations the predicate reads) and
serves every pin at those contents.  :class:`ValueListMemo` keeps the
finished ones per database, each under the ``schema_version`` and contents
versions it was built from — the same token as above.  An entry is
published complete and only read afterwards; a newer token replaces an
older one and never the reverse (a pin older than the entry builds
privately, as with the views); a statement pin publishes nothing, since
its transaction may yet roll back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator

from repro.errors import CatalogError, SnapshotError
from repro.relational.index import index_view
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics

__all__ = [
    "DatabaseSnapshot",
    "SnapshotRegistry",
    "SnapshotRelation",
    "ValueListMemo",
    "version_token",
]


def version_token(source, names) -> tuple:
    """What a structure computed from relations ``names`` of ``source`` is valid
    under: the catalog version, then each relation's contents version.

    A pinned relation carries the version its pin captured, so one reading
    serves the live database and a snapshot.  Every component only grows
    (through rollback too): two states agreeing on the token hold identical
    contents for exactly those relations, and tokens taken from committed
    states order the way the states did.
    """
    relation = source.relation
    return (source.schema_version, *(relation(name)._version for name in names))


class ValueListMemo:
    """Finished Strategy 4 value lists, per bound derived predicate (LRU).

    ``token`` is the :func:`version_token` of the relations the predicate
    reads (the value list rule).
    """

    CAPACITY = 128

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, predicate, token: tuple):
        """The value list built for ``predicate`` under exactly ``token``, or ``None``."""
        with self._lock:
            entry = self._entries.get(predicate)
            if entry is None or entry[0] != token:
                return None
            self._entries.move_to_end(predicate)
            return entry[1]

    def publish(self, predicate, token: tuple, value_list) -> None:
        """Keep ``value_list`` unless a newer state's is already there."""
        with self._lock:
            entry = self._entries.get(predicate)
            if entry is not None and entry[0] > token:
                return
            self._entries[predicate] = (token, value_list)
            self._entries.move_to_end(predicate)
            if len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SnapshotRegistry:
    """Per-database coordination between snapshot pins and relation writers.

    One registry per :class:`~repro.relational.database.Database`.  Its lock
    is the only synchronization of the whole scheme: pins, releases, overlay
    transitions and every element-dict write of a registered relation take
    it.  The critical sections are tiny (a dict copy at worst), so writers
    and pinning readers contend for microseconds — actual query execution
    runs entirely outside.
    """

    def __init__(self, statistics: AccessStatistics) -> None:
        # Only the database's tracker (the committed data version), never
        # the database: a back-pointer would be a cycle, and a dropped
        # database should be reclaimed by reference counting alone.
        self._statistics = statistics
        self.lock = threading.Lock()
        #: Bumped on every pin; relations compare their ``_cow_epoch``
        #: against it to decide whether their current dict may be pinned.
        self.epoch = 0
        #: Number of live (unreleased) snapshots.
        self.active = 0
        #: How many of them are statement pins (they hold live dicts).
        self.own_pins = 0
        #: The undo journal of the transaction journaling mutations, if any —
        #: also the identity guard: a completion reported by a journal that
        #: is no longer the current transaction (a stale rollback racing a
        #: successor's begin) must not clear the successor's overlay state.
        self.tx_journal = None
        #: relation name -> (committed element dict, committed per-relation
        #: version) of relations the transaction has touched — filled by the
        #: first pin that meets each one mid-transaction, empty otherwise.
        self.overlay: dict[str, tuple[dict, int]] = {}
        #: The data version pins report while a transaction is active.
        self.committed_data_version = 0
        #: What the collection phases of pins share (the value list rule).
        self.value_lists = ValueListMemo()

    # -- transaction boundaries (called by Database / UndoJournal) ---------------------

    def transaction_started(self, journal) -> None:
        """``journal``'s transaction opened: pins now serve committed images."""
        with self.lock:
            self.tx_journal = journal
            self.overlay.clear()
            self.committed_data_version = self._statistics.mutation_epoch

    def transaction_finished(self, journal) -> None:
        """``journal``'s outcome is applied (commit, or rollback replayed).

        Drops the overlay and re-reads the committed data version, so the
        next pin captures the live dicts and the post-transaction epoch.
        A completion from a journal that is no longer the current
        transaction is ignored — a stale callback must never clear a
        successor transaction's overlay.
        """
        with self.lock:
            if self.tx_journal is not journal:
                return
            self.tx_journal = None
            self.overlay.clear()
            self.committed_data_version = self._statistics.mutation_epoch

    # -- pinning -----------------------------------------------------------------------

    def pin(self, database, journal=None) -> "DatabaseSnapshot":
        """Capture a consistent snapshot of ``database``'s base relations — per
        relation its dict and version: the committed ones, or the live ones
        when ``journal`` is the open transaction's (a statement pin)."""
        with self.lock:
            self.epoch += 1
            self.active += 1
            own = journal is not None and journal is self.tx_journal
            if self.tx_journal is None or own:
                data_version = self._statistics.mutation_epoch
            else:
                data_version = self.committed_data_version
            snapshot = DatabaseSnapshot(
                registry=self,
                name=database.name,
                schema_version=database.schema_version,
                data_version=data_version,
                indexes=database._indexes,
                in_transaction=own,
            )
            captured, versions = snapshot._captured, snapshot.relation_versions
            if own:
                self.own_pins += 1
                for name, relation in database._relations.items():
                    captured[name] = relation, relation._elements
                    versions[name] = relation._version
                return snapshot
            journal = self.tx_journal
            for name, relation in database._relations.items():
                stashed = self.overlay.get(name)
                if stashed is None and journal is not None:
                    # First pin to meet this relation inside the transaction:
                    # it pays for the committed image, later pins share it.
                    stashed = journal.committed(relation)
                    if stashed is not None:
                        self.overlay[name] = stashed
                if stashed is None:
                    stashed = relation._elements, relation._version
                elif stashed[0] is not relation._elements and not self.own_pins:
                    # An image, not the live dict, and no statement pin may
                    # hold the live one: the writer need not copy it.
                    relation._cow_epoch = self.epoch
                captured[name], versions[name] = (relation, stashed[0]), stashed[1]
        return snapshot

    def release(self, snapshot: "DatabaseSnapshot") -> None:
        """Un-pin ``snapshot`` and fold its private statistics into the
        database's tracker — once (idempotent)."""
        with self.lock:
            if snapshot._released:
                return
            snapshot._released = True
            self.active -= 1
            if snapshot.in_transaction:
                self.own_pins -= 1
            # A published view of contents the committed state has moved
            # past serves no later pin; it only keeps that dict and a
            # reference per element alive on the catalog entry.
            journal = self.tx_journal
            for catalogued in snapshot._indexes.values():
                slot = catalogued.snapshot_view
                if slot is None or slot[1] is None:
                    continue
                relation = catalogued.relation
                committed = (
                    relation._version
                    if journal is None
                    else journal.committed_version(relation)
                )
                if slot[0] != committed:
                    catalogued.snapshot_view = None
        self._statistics.merge(snapshot.statistics)


class SnapshotRelation(Relation):
    """A read-only view of one relation's pinned element dict.

    Shares the captured dict with zero copying — the copy-on-write rule
    guarantees no writer ever mutates it again.  Reads are accounted to the
    snapshot's *private* statistics tracker; scans charge their element
    reads in one batched call (no per-element bookkeeping), which is most of
    the snapshot read path's speed advantage.
    """

    def __init__(self, source: Relation, elements: dict, version: int, tracker) -> None:
        # Deliberately no super().__init__: the captured dict is adopted
        # as-is, never rebuilt through insert_all.
        self.name = source.name
        self.schema = source.schema
        self.tracker = tracker
        self._elements = elements
        self._journal = None
        self._key_is_all = source._key_is_all
        self._registry = None
        self._cow_epoch = 0
        # Of the captured dict — a committed image can be older than the live one.
        self._version = version

    # -- reads -------------------------------------------------------------------------

    def scan(self) -> Iterator:
        """Tracked iteration with batched accounting."""
        records = list(self._elements.values())
        tracker = self.tracker
        if tracker is not None:
            tracker.record_scan(self.name)
            tracker.record_element_read(self.name, len(records))
        return iter(records)

    # -- refused mutations -------------------------------------------------------------

    def _refuse_write(self, *_args, **_kwargs):
        raise SnapshotError(
            f"relation {self.name!r} is a pinned snapshot view and is read-only; "
            "mutate the live relation through a connection session instead"
        )

    assign = _refuse_write
    insert = _refuse_write
    insert_all = _refuse_write
    insert_raw = _refuse_write
    delete = _refuse_write
    delete_key = _refuse_write
    clear = _refuse_write


class DatabaseSnapshot:
    """A pinned, immutable view of a database: the read half of MVCC.

    Duck-types the :class:`~repro.relational.database.Database` surface the
    query engine consumes (catalog lookups, statistics, emptiness, index
    lookups), so a :class:`~repro.engine.evaluator.QueryEngine` constructed
    over a snapshot executes any plan unmodified.  Permanent indexes are
    served as views derived from the pinned dicts (the module's index view
    rule).  Statistics are a
    private :class:`AccessStatistics`, merged into the database's shared
    tracker when the snapshot is released.  A relation's
    :class:`SnapshotRelation` is built on the first :meth:`relation` call for
    it: a read pays for the relations it reads.
    """

    #: The engine door's pin (``Database.pin_snapshot(ready=True)``): every
    #: index candidate is ready, a missing view built untracked.
    ready = False

    def __init__(self, registry: SnapshotRegistry, name: str, schema_version: int,
                 data_version: int, indexes: dict, in_transaction: bool = False) -> None:
        self._registry = registry
        #: A statement pin: it reads the shared slots and memos, writes none.
        self.in_transaction = in_transaction
        #: The index catalog as pinned; index DDL replaces the database's
        #: dict, so this one never changes.
        self._indexes = indexes
        self.name = name
        self.schema_version = schema_version
        self.data_version = data_version
        self.statistics = AccessStatistics()
        #: Per relation name, as pinned: (live relation, element dict to read).
        self._captured: dict[str, tuple[Relation, dict]] = {}
        #: The views over those dicts built so far (``relation``).
        self._relations: dict[str, SnapshotRelation] = {}
        #: Captured per-relation contents versions — the relation-granular
        #: validity token for memoized collection structures: two snapshots
        #: agreeing on a relation's version hold identical contents for it.
        self.relation_versions: dict[str, int] = {}
        #: (relation, component) -> the view this pin resolved, or ``None``
        #: once the selector has passed it over unbuilt (see index_candidate).
        self._views: dict[tuple[str, str], object] = {}
        self._released = False

    # -- catalog surface ---------------------------------------------------------------

    def relation(self, name: str) -> SnapshotRelation:
        """The view of ``name`` over the dict captured at pin time, built on first use."""
        relation = self._relations.get(name)
        if relation is None:
            if name not in self._captured:
                raise CatalogError(f"no relation {name!r} in snapshot of database {self.name!r}")
            source, elements = self._captured[name]
            relation = self._relations.setdefault(name, SnapshotRelation(
                source, elements, self.relation_versions[name], self.statistics))
        return relation

    def has_relation(self, name: str) -> bool:
        return name in self._captured

    def relations(self) -> Iterator[SnapshotRelation]:
        return iter([self.relation(name) for name in self._captured])

    def relation_names(self) -> list[str]:
        return list(self._captured)

    def cardinalities(self) -> dict[str, int]:
        return {name: len(elements) for name, (_, elements) in self._captured.items()}

    def __contains__(self, name: object) -> bool:
        return name in self._captured

    def __getitem__(self, name: str) -> SnapshotRelation:
        return self.relation(name)

    # -- engine surface ----------------------------------------------------------------

    @property
    def value_lists(self) -> ValueListMemo:
        return self._registry.value_lists

    def index_for(self, relation_name: str, field_name: str):
        """The permanent index on ``relation_name.field_name`` as of this pin.

        An index of the catalogued organisation over the pinned dict, charging
        this pin's tracker — taken from the slot when a pin at the same
        contents version published one, built here (one scan) otherwise, and
        kept for the life of the pin (the module's index view rule).
        """
        key = (relation_name, field_name)
        view = self._views.get(key)
        if view is None:
            catalogued = self._indexes.get(key)
            if catalogued is None:
                return None
            view = self._views[key] = index_view(
                catalogued, self.relation(relation_name), self.statistics,
                publish=not self.in_transaction, tracked=not self.ready,
            )
        return view

    def index_candidate(self, relation_name: str, field_name: str):
        """``(index to price a probe with, reads to make it probe-able)``.

        What the access-path selector asks before it commits to a probe; it
        never builds (the module's "who pays the build").  A view this pin
        holds, or one published at its contents version, costs no reads.
        An unbuilt one is on offer — at one read per element, priced with
        the catalogued index's counts (of its last build: near enough for an
        estimate, never probed) — once its version has been passed over
        before, by this pin or by an earlier one that left its note in the
        slot.  Otherwise this call is the first sight: it leaves both notes
        and answers ``(None, 0)``, as for a component with no index.  The
        engine door's pin (``ready``) answers :meth:`index_for` at zero reads.
        """
        if self.ready:
            return self.index_for(relation_name, field_name), 0
        key = (relation_name, field_name)
        catalogued = self._indexes.get(key)
        if catalogued is None:
            return None, 0
        view = self._views.get(key)
        if view is not None:
            return view, 0
        version = self.relation_versions[relation_name]
        slot = catalogued.snapshot_view
        noted = key in self._views
        if slot is not None and slot[0] == version:
            if slot[1] is not None:
                return slot[1], 0
            noted = True
        if noted:
            return catalogued, len(self._captured[relation_name][1])
        self._views[key] = None
        if not self.in_transaction and (slot is None or slot[0] < version):
            catalogued.snapshot_view = (version, None)
        return None, 0

    def indexes(self) -> Iterator[tuple[str, str]]:
        return iter(self._indexes)

    def reset_statistics(self) -> None:
        self.statistics.reset()

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Un-pin this snapshot (idempotent); writers stop copying for it."""
        self._registry.release(self)

    def __enter__(self) -> "DatabaseSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "released" if self._released else "pinned"
        return (
            f"DatabaseSnapshot({self.name!r}, {state}, "
            f"data_version={self.data_version})"
        )
