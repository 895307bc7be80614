"""The database catalog.

A :class:`Database` plays the role of the PASCAL/R database module: it owns
the named base relations declared in Figure 1, the permanent indexes of
Example 3.1, and the shared :class:`AccessStatistics` that every scan, probe
and insert is charged to.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, Iterator, Mapping, Sequence

from repro.config import DURABILITY_COMMIT, DURABILITY_MODES, DURABILITY_OFF
from repro.errors import CatalogError, StorageError, TransactionError
from repro.relational.index import HashIndex, PermanentIndex, SortedIndex, build_index
from repro.relational.journal import UndoJournal
from repro.relational.mvcc import DatabaseSnapshot, SnapshotRegistry
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.schema import Field, RelationSchema

__all__ = ["Database"]


class Database:
    """A named collection of relations, indexes, and access statistics.

    A database is either *in-memory* (the default constructor — nothing ever
    touches disk) or *disk-resident* (built by :meth:`open`): backed by a
    directory holding a checkpoint snapshot plus a write-ahead log, with the
    durability mode deciding what a committed transaction survives.
    Every relation is a plain :class:`Relation`.  ``paged`` is accepted and
    ignored: it once selected simulated heap pages.
    """

    def __init__(self, name: str = "database", paged: bool = True) -> None:
        self.name = name
        self.statistics = AccessStatistics()
        self._relations: dict[str, Relation] = {}
        # The index catalog is replaced, never mutated, by index DDL: a
        # pinned snapshot keeps the dict it found (see mvcc.py).
        self._indexes: dict[tuple[str, str], PermanentIndex] = {}
        self._schema_version = 0
        # The undo journal of the one active session transaction, if any.
        # The lock only protects the slot handover (begin/end); the journaled
        # mutations themselves run on the relations' ordinary paths.  The
        # condition lets a ``begin`` with a busy timeout wait for the slot.
        self._active_journal: UndoJournal | None = None
        self._journal_lock = threading.Lock()
        self._journal_free = threading.Condition(self._journal_lock)
        # Snapshot-read coordination: every registered relation's dict writes
        # and every snapshot pin synchronize on this registry (see mvcc.py).
        self._snapshots = SnapshotRegistry(self.statistics)
        # Disk residency (all None/inert for an in-memory database).
        self.durability: str | None = None
        self._directory: str | None = None
        self._wal = None
        self._recovery_report = None
        self._next_txid = 1
        self._checkpoint_lsn = 0
        self._checkpoint_pending = False
        self._closed = False
        #: Fault-injection hook threaded through every disk write
        #: (checkpoints, WAL flushes); tests arm it, production leaves it None.
        self.crash_point = None

    # -- disk residency ----------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        name: str | None = None,
        durability: str = DURABILITY_COMMIT,
        crash_point=None,
    ) -> "Database":
        """Open (or create) the disk-resident database stored in ``directory``.

        Loads the checkpoint snapshot, runs crash recovery over the
        write-ahead log (redo of every intact commit frame),
        and takes a fresh checkpoint so the log never has to be replayed
        twice.  The :class:`~repro.storage.recovery.RecoveryReport` is kept
        on :attr:`recovery_report`.
        """
        from repro.storage.recovery import recover
        from repro.storage.snapshot import load_snapshot, wal_path
        from repro.storage.wal import WriteAheadLog

        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability mode {durability!r}; expected one of "
                f"{', '.join(DURABILITY_MODES)}"
            )
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        database = cls(name or os.path.basename(os.path.abspath(directory)) or "database")
        database.durability = durability
        database.crash_point = crash_point
        snapshot_lsn, next_txid = load_snapshot(database, directory)
        report = recover(database, wal_path(directory), snapshot_lsn)
        database._recovery_report = report
        database._next_txid = max(
            [next_txid] + [txid + 1 for txid in report.replayed_transactions]
        )
        database._checkpoint_lsn = max(snapshot_lsn, report.last_lsn)
        if durability != DURABILITY_OFF:
            database._wal = WriteAheadLog(
                wal_path(directory),
                next_lsn=database._checkpoint_lsn + 1,
                statistics=database.statistics,
                crash_point=crash_point,
            )
        # Residency starts *after* load + recovery so the catalog definitions
        # replayed from the snapshot do not themselves trigger checkpoints.
        database._directory = directory
        database.checkpoint()
        return database

    @property
    def directory(self) -> str | None:
        """The backing directory of a disk-resident database (else ``None``)."""
        return self._directory

    @property
    def recovery_report(self):
        """What crash recovery found when this database was opened."""
        return self._recovery_report

    @property
    def closed(self) -> bool:
        return self._closed

    def checkpoint(self) -> None:
        """Write the whole database to the snapshot and truncate the write-ahead log.

        Protocol: flush+fsync the WAL (making every logged record durable),
        atomically replace the snapshot (which records the absorbed LSN
        watermark), truncate the log, and append a ``CHECKPOINT`` marker to
        the fresh log.  A crash at any point is recoverable: before the
        snapshot rename the old snapshot + full log still reproduce the
        state; after the rename the new snapshot's watermark makes the
        not-yet-truncated log records no-ops.
        """
        from repro.storage.snapshot import wal_path, write_snapshot

        self._ensure_disk_resident("checkpoint")
        if self._active_journal is not None:
            raise TransactionError(
                "cannot checkpoint while a transaction is active; commit or "
                "roll back first"
            )
        if self._wal is not None:
            self._wal.flush(fsync=True)
            durable_lsn = self._wal.durable_lsn
        else:
            durable_lsn = self._checkpoint_lsn
        write_snapshot(
            self,
            self._directory,
            last_lsn=durable_lsn,
            next_txid=self._next_txid,
            crash_point=self.crash_point,
        )
        if self._wal is not None:
            self._wal.truncate()
            self._wal.append("CHECKPOINT", snapshot_lsn=durable_lsn)
            self._wal.flush(fsync=False)
        else:
            # durability='off' keeps no log; drop any stale one (its effects
            # were just absorbed into the snapshot).
            stale = wal_path(self._directory)
            if os.path.exists(stale):
                if self.crash_point is not None:
                    self.crash_point.arm("wal-truncate")
                with open(stale, "wb"):
                    pass
        self._checkpoint_lsn = durable_lsn
        self._checkpoint_pending = False
        self.statistics.record_checkpoint()

    def close(self) -> None:
        """Checkpoint and release a disk-resident database (idempotent).

        An active transaction must be resolved first; the session layer
        rolls back on close before calling this.
        """
        if self._closed:
            return
        if self._directory is None:
            self._closed = True
            return
        if self._active_journal is not None:
            raise TransactionError(
                "cannot close a database with an active transaction; commit "
                "or roll back first"
            )
        self.checkpoint()
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    def run_pending_checkpoint(self) -> bool:
        """Take the checkpoint a mid-transaction DDL statement deferred.

        Returns ``True`` when a checkpoint ran.  Called by the session layer
        right after a commit or rollback releases the transaction slot.
        """
        if (
            self._checkpoint_pending
            and self._directory is not None
            and self._active_journal is None
            and not self._closed
        ):
            self.checkpoint()
            return True
        return False

    def _ensure_disk_resident(self, operation: str) -> None:
        if self._closed:
            raise StorageError(f"database {self.name!r} is closed")
        if self._directory is None:
            raise StorageError(
                f"cannot {operation} an in-memory database; open one with "
                "Database.open(directory)"
            )

    def _ddl_changed(self) -> None:
        """Persist a catalog change on a disk-resident database.

        DDL is not transactional, so it cannot ride the WAL's undo/redo
        records; instead the catalog change is made durable by an immediate
        checkpoint — or, when a transaction is active (its data mutations
        may not be forced yet), by deferring the checkpoint to the moment
        the transaction ends.  Until that deferred checkpoint runs, the DDL
        (and any data of new relations) is not yet crash-durable; this is
        the documented durability window of mid-transaction DDL.
        """
        if self._directory is None or self._closed:
            return
        if self._active_journal is not None:
            self._checkpoint_pending = True
        else:
            self.checkpoint()

    # -- schema versioning -----------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """A counter bumped on every catalog mutation.

        The service layer's plan cache keys cached plans on this version, so
        creating or dropping relations and indexes invalidates every plan
        compiled against the old catalog (the cache's invalidation rule).
        Call :meth:`bump_schema_version` after out-of-band mutations the
        catalog cannot see.
        """
        return self._schema_version

    def bump_schema_version(self) -> int:
        """Invalidate cached plans and memoized value lists by advancing the schema version."""
        self._schema_version += 1
        # Unreachable from here on (the version is in their token): free them now.
        self._snapshots.value_lists.clear()
        return self._schema_version

    @property
    def data_version(self) -> int:
        """A counter advanced on every tracked data mutation.

        Every insert, delete, assign and clear on a relation owned by this
        database reports to the shared statistics tracker, which maintains a
        monotonic mutation epoch (it survives statistics resets).  The
        service layer compares this version to decide whether cached
        collection-phase structures still reflect the stored data.
        """
        return self.statistics.mutation_epoch

    # -- session transactions ----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether a session transaction is currently journaling mutations."""
        return self._active_journal is not None

    def begin_transaction(self, timeout: float = 0.0) -> UndoJournal:
        """Open a transaction: journal every tracked mutation until commit/rollback.

        At most one transaction is active per database at a time (the session
        layer serializes writers); a concurrent ``begin`` raises
        :class:`~repro.errors.TransactionError` — immediately with the
        default ``timeout`` of 0, or after waiting up to ``timeout`` seconds
        for the slot to free (the session layer passes its
        ``ServiceOptions.busy_timeout`` here).  The returned journal is
        attached to every base relation, so the four tracked operators
        (``insert``/``delete``/``assign``/``clear``, plus the raw-insert fast
        path) record what each key they change held until
        :meth:`end_transaction`.

        On a disk-resident database the journal is also bound to the
        write-ahead log under a fresh transaction id (unless durability is
        ``'off'``), so every journaled mutation buffers its redo op for the
        commit frame.
        """
        with self._journal_free:
            if self._active_journal is not None and timeout > 0:
                deadline = time.monotonic() + timeout
                while self._active_journal is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._journal_free.wait(remaining):
                        break
            if self._active_journal is not None:
                raise TransactionError(
                    f"database {self.name!r} already has an active transaction"
                    + (f" (waited {timeout:.3g}s for it to end)" if timeout > 0 else "")
                )
            journal = UndoJournal()
            if self._wal is not None:
                journal.bind_wal(self._wal, self._next_txid)
                self._next_txid += 1
            self._active_journal = journal
        # From here until the transaction's outcome is fully applied,
        # snapshot pins serve the committed image of every relation the
        # transaction has touched instead of its live dict.
        # Rollback applies its outcome asynchronously to end_transaction
        # (the journal replays *after* detaching), so the journal itself
        # reports completion on that path — which publishes the restored
        # state and frees the transaction slot held through the replay.
        # (A bound method called with the journal, not a lambda closing over
        # it: journal -> lambda -> journal would be a cycle keeping every
        # transaction's before-values until a full collection.)
        journal.on_rollback_finished = self._rollback_finished
        self._snapshots.transaction_started(journal)
        for relation in self._relations.values():
            relation.begin_journal(journal)
        return journal

    def end_transaction(self, journal: UndoJournal) -> None:
        """Detach ``journal`` from every relation (commit, or pre-rollback).

        Detaching *before* replaying is what keeps rollback from journaling
        itself; :meth:`UndoJournal.rollback` refuses to run while attached.

        A committed journal frees the transaction slot here — after the
        detach, so a newly admitted transaction can never find relations
        still carrying the old journal.  An *aborted* journal keeps the
        slot held: its outcome is only applied once ``journal.rollback()``
        has replayed the before-values, and admitting a new transaction
        mid-replay would attach a fresh journal to relations whose
        contents are still being restored.  The slot is freed by the
        journal's completion callback (:meth:`_rollback_finished`) instead.
        """
        with self._journal_free:
            if self._active_journal is not journal:
                raise TransactionError(
                    "journal does not belong to the active transaction of "
                    f"database {self.name!r}"
                )
        for relation in self._relations.values():
            if relation._journal is journal:
                relation.end_journal()
        # Commit: the transaction's effects are final now, so snapshot pins
        # may serve the live dicts again — published *before* the slot
        # frees, so a successor transaction's overlay can never be set up
        # first and then clobbered.  Abort: the rolled-back state is only
        # restored once journal.rollback() has replayed the before-values —
        # the journal reports completion itself then.
        if not journal.aborted:
            self._snapshots.transaction_finished(journal)
            with self._journal_free:
                self._active_journal = None
                self._journal_free.notify_all()

    def _rollback_finished(self, journal: UndoJournal) -> None:
        """An aborted transaction's replay completed (``UndoJournal.rollback``).

        The restored state is the committed state now: publish it to the
        snapshot registry (pins serve the live dicts again), then free the
        transaction slot held through the replay, waking any ``begin``
        blocked on its busy timeout.
        """
        self._snapshots.transaction_finished(journal)
        with self._journal_free:
            if self._active_journal is journal:
                self._active_journal = None
                self._journal_free.notify_all()

    def commit_transaction(self, journal: UndoJournal) -> None:
        """Make ``journal``'s transaction durable per the durability mode.

        Appends the ``COMMIT`` frame (every redo op of the transaction) and
        flushes the WAL — with an fsync
        under ``durability='commit'`` (the record survives power loss before
        this method returns), without one under ``'checkpoint'`` (the record
        survives a process crash; only a checkpoint fsyncs).  In-memory
        databases and ``durability='off'`` log nothing: the commit is purely
        the in-memory state, persisted by the next checkpoint.  The caller
        still runs :meth:`end_transaction` afterwards.
        """
        if self._active_journal is not journal:
            raise TransactionError(
                "journal does not belong to the active transaction of "
                f"database {self.name!r}"
            )
        journal.log_commit(fsync=self.durability == DURABILITY_COMMIT)

    def abort_transaction(self, journal: UndoJournal) -> None:
        """Mark ``journal``'s transaction as rolling back; nothing is logged.

        Called before :meth:`end_transaction` + ``journal.rollback()``.  Its
        redo ops never reach a commit frame, so recovery never replays them.
        """
        if self._active_journal is not journal:
            raise TransactionError(
                "journal does not belong to the active transaction of "
                f"database {self.name!r}"
            )
        journal.aborted = True

    # -- snapshot reads ----------------------------------------------------------------

    @property
    def value_lists(self):
        """The memo of Strategy 4 value lists this database's readers share
        (:class:`~repro.relational.mvcc.ValueListMemo`)."""
        return self._snapshots.value_lists

    def pin_snapshot(
        self, journal: UndoJournal | None = None, ready: bool = False
    ) -> DatabaseSnapshot:
        """Pin a consistent snapshot of every base relation.

        The snapshot shares the relations' element dicts (no copying); the
        copy-on-write rule makes writers swap in fresh dicts before mutating
        anything a pinned snapshot holds, so readers iterate it without any
        lock.  While a transaction is active the snapshot serves the
        *committed* pre-transaction image — for each relation the
        transaction has touched, the first such pin pays one dict copy to
        rebuild it — unless ``journal`` is that transaction's own: then it
        is the transaction's statement snapshot, its writes so far included.
        Release it (or drain the cursor that holds it) promptly — every live
        pin forces one dict copy per subsequently mutated relation; the
        release folds the pin's private statistics into :attr:`statistics`.
        ``ready`` is for the engine door alone (:meth:`_door_pin`).
        """
        snapshot = self._snapshots.pin(self, journal)
        snapshot.ready = ready
        return snapshot

    def _door_pin(self) -> DatabaseSnapshot:
        """What the engine door reads: a pin whose index candidates are ready —
        the statement pin of the open transaction on the thread that opened
        it, the committed state anywhere else."""
        journal = self._active_journal
        if journal is not None and journal.thread != threading.get_ident():
            journal = None
        return self.pin_snapshot(journal, ready=True)

    # -- relation management ---------------------------------------------------------

    def create_relation(
        self,
        name: str,
        fields: Sequence[Field] | Sequence[tuple] | Mapping,
        key: Sequence[str] | None = None,
        elements: Iterable | None = None,
    ) -> Relation:
        """Declare a new base relation (the ``VAR rel : RELATION ... END`` of Figure 1)."""
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already declared")
        schema = RelationSchema(name, fields, key=key)
        relation = Relation(name, schema, elements=elements, tracker=self.statistics)
        # Catalog insert + registry bind happen under the registry lock:
        # snapshot pins iterate the relation dict under that lock (and
        # under no other), so a concurrent reader must never observe the
        # dict mid-resize.
        with self._snapshots.lock:
            self._relations[name] = relation
            relation.bind_registry(self._snapshots)
        # DDL is not transactional (the relation survives a rollback), but
        # *data* mutations of a relation declared mid-transaction are
        # journaled like any other — rollback leaves it holding what it
        # holds now.
        if self._active_journal is not None:
            relation.begin_journal(self._active_journal)
        self.bump_schema_version()
        self._ddl_changed()
        return relation

    def add_relation(self, relation: Relation) -> Relation:
        """Register an externally constructed relation under its own name."""
        if relation.name in self._relations:
            raise CatalogError(f"relation {relation.name!r} already declared")
        relation.tracker = self.statistics
        with self._snapshots.lock:
            self._relations[relation.name] = relation
            relation.bind_registry(self._snapshots)
        if self._active_journal is not None:
            relation.begin_journal(self._active_journal)
        self.bump_schema_version()
        self._ddl_changed()
        return relation

    def relation(self, name: str) -> Relation:
        """The base relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"no relation {name!r} in database {self.name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def drop_relation(self, name: str) -> None:
        """Remove a relation and any indexes built over it.

        One catalog change, one ``schema_version`` bump — however many
        indexes die with the relation.
        """
        if name not in self._relations:
            raise CatalogError(f"no relation {name!r} in database {self.name!r}")
        # Pop under the registry lock for the same reason create inserts
        # under it: concurrent snapshot pins iterate this dict — and take the
        # index catalog with it, so no pin sees an index without its relation.
        with self._snapshots.lock:
            relation = self._relations.pop(name)
            # A committed image kept for mid-transaction pins is filed under
            # the name; a successor relation of that name must not find it.
            self._snapshots.overlay.pop(name, None)
            self._indexes = {
                key: index for key, index in self._indexes.items() if key[0] != name
            }
        # A dropped relation leaves the active transaction: what it journaled
        # so far is still set back on rollback (into the orphaned object —
        # harmless, the drop itself is DDL and not undone), but what is done
        # to the orphan from here on is not the database's business, and
        # must not reach a log that could not replay it.
        relation.end_journal()
        self.bump_schema_version()
        self._ddl_changed()

    def relations(self) -> Iterator[Relation]:
        """All base relations in declaration order."""
        return iter(self._relations.values())

    def relation_names(self) -> list[str]:
        return list(self._relations)

    def cardinalities(self) -> dict[str, int]:
        """Element counts of every base relation (the optimizer's statistics)."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    # -- permanent indexes --------------------------------------------------------------

    def create_index(
        self, relation_name: str, field_name: str, operator: str = "="
    ) -> HashIndex | SortedIndex:
        """Build a permanent index like ``enrindex`` of Example 3.1.

        The collection phase consults ``index_for`` and skips the index
        construction step when a permanent index already exists — "The first
        step can be omitted, if permanent indexes exist" (Section 3.2) — and
        the access-path selector probes it in place of whole-relation scans.
        The index is built here by one scan of the relation and published as
        the view of the current contents version; the catalog keeps no entries
        and no write touches it — every pin derives the view of the version it
        reads (DESIGN.md "Indexes are views").  ``=``/``<>`` make a hash
        index, the ordering operators a sorted one: the organisation is all
        the catalog keeps of ``operator``.  Returns the build.

        Exactly one ``schema_version`` bump per call: creating (or replacing)
        an index is one catalog change, so every cached plan — which may have
        baked an access-path choice against the old catalog — is invalidated
        exactly once.
        """
        relation = self.relation(relation_name)
        index = build_index(relation, field_name, operator, tracker=self.statistics)
        entry = PermanentIndex(index, relation._version)
        self._indexes = {**self._indexes, (relation_name, field_name): entry}
        self.bump_schema_version()
        self._ddl_changed()
        return index

    def index_for(self, relation_name: str, field_name: str) -> HashIndex | SortedIndex | None:
        """The permanent index on ``relation_name.field_name``, if one exists:
        the engine door's pin's view, its probes charged to :attr:`statistics`
        (for a collection phase run on the database itself)."""
        if (relation_name, field_name) not in self._indexes:
            return None
        with self._door_pin() as pin:
            return pin.index_for(relation_name, field_name).with_tracker(self.statistics)

    def index_candidate(self, relation_name: str, field_name: str):
        """``(index, reads to make it probe-able)`` — the engine door's pin's
        answer: :meth:`index_for`, zero reads."""
        return self.index_for(relation_name, field_name), 0

    def drop_index(self, relation_name: str, field_name: str) -> None:
        index = self._indexes.get((relation_name, field_name))
        if index is not None:
            self._indexes = {
                key: kept for key, kept in self._indexes.items() if kept is not index
            }
            self.bump_schema_version()
            self._ddl_changed()

    def indexes(self) -> Iterator[tuple[str, str]]:
        """The ``(relation, component)`` pairs that have a permanent index."""
        return iter(self._indexes.keys())

    # -- statistics ------------------------------------------------------------------------

    def reset_statistics(self) -> None:
        """Forget all access counters (used between benchmark runs)."""
        self.statistics.reset()

    def describe(self) -> str:
        """Human readable catalog listing."""
        lines = [f"DATABASE {self.name}"]
        for relation in self._relations.values():
            lines.append(f"  {relation.name} ({len(relation)} elements)")
            for schema_line in relation.schema.describe().splitlines():
                lines.append(f"    {schema_line}")
        if self._indexes:
            lines.append("  permanent indexes:")
            for relation_name, field_name in self._indexes:
                lines.append(f"    {relation_name}.{field_name}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Database({self.name!r}, relations={list(self._relations)})"
