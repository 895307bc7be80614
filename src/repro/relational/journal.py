"""The undo journal behind session transactions.

PASCAL/R embeds relation updates in a host program that manipulates the
database inside a controlled scope; the session layer of :mod:`repro.api`
reproduces that scope with ``begin``/``commit``/``rollback`` semantics over
the four tracked relation operators (``insert``, ``delete``, ``assign``,
``clear``).

The journal is an *undo* journal of lazily captured before-images: the first
time a relation is mutated inside a transaction, its complete element list is
snapshotted (the before-image); every further mutation of the same relation
only appends to the operation log.  ``rollback`` replays the before-images,
most recently touched relation first, through the ordinary
:meth:`~repro.relational.relation.Relation.assign` operator.

Replaying through ``assign`` is the coherence rule the whole design leans
on: ``assign`` clears and reinserts through the relation's normal mutation
path, which notifies the observer list (so permanent indexes are maintained
incrementally back to the pre-transaction state), rebuilds the heap file of a
paged relation from scratch (so pages are repacked and zone maps match a
fresh load of the restored contents), and advances the database's
``data_version`` (so collection-phase memos and cached service plans can
never serve results computed from the rolled-back data).  ``schema_version``
is untouched — rollback is a pure data operation, catalog changes (DDL) are
not transactional — so cached plans remain exactly as valid as they were
before ``begin``.

On a disk-resident database the journal is additionally the **single WAL
choke point**: :meth:`before_mutation` runs before any mutation touches the
in-memory state or its heap pages, so emitting the write-ahead record here
— ``BEGIN`` lazily on the first mutation, then one redo record per tracked
operation — guarantees the log describes every page a transaction dirties.
The emitted record's LSN becomes the dirtied pages' *recovery LSN* (via
:attr:`last_lsn`), which the buffer pool's write-ahead gate checks before
any page is forced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.record import Record
    from repro.relational.relation import Relation
    from repro.storage.wal import WriteAheadLog

__all__ = ["UndoJournal"]


class UndoJournal:
    """Before-images and an operation log for one transaction.

    A journal is attached to every base relation of a database by
    :meth:`~repro.relational.database.Database.begin_transaction`; the
    relation mutation operators call :meth:`before_mutation` *before*
    applying themselves, which captures the first-touch before-image, logs
    the operation, and — when the database is durable — appends the
    operation's redo record to the write-ahead log.
    """

    def __init__(self) -> None:
        # id(relation) -> (relation, before-image element list).  Insertion
        # order is first-touch order; rollback replays it in reverse.
        self._images: dict[int, tuple["Relation", list["Record"]]] = {}
        #: ``(relation name, operator)`` per journaled mutation, oldest first.
        self.operations: list[tuple[str, str]] = []
        self._rolled_back = False
        #: Set by ``Database.abort_transaction``: tells ``end_transaction``
        #: that the outcome (the rollback replay) is still pending, so the
        #: snapshot registry must keep serving the committed overlay.
        self.aborted = False
        #: Callback invoked with this journal when :meth:`rollback` has
        #: finished replaying (``Database.begin_transaction`` points it at
        #: the database's ``_rollback_finished``, which publishes the
        #: restored state to the snapshot registry and frees the
        #: transaction slot held through the replay).
        self.on_rollback_finished = None
        self._wal: "WriteAheadLog | None" = None
        #: Transaction id on the durable database, ``None`` in memory.
        self.txid: int | None = None
        #: LSN of the most recent redo record this journal emitted (0 when
        #: none); stored relations stamp it on the pages they dirty.
        self.last_lsn = 0
        self._began = False

    # -- WAL binding (durable databases only) ----------------------------------------

    def bind_wal(self, wal: "WriteAheadLog", txid: int) -> None:
        """Route this transaction's mutations into ``wal`` as ``txid``."""
        self._wal = wal
        self.txid = txid

    @property
    def logged(self) -> bool:
        """Whether this transaction has emitted any WAL records."""
        return self._began

    def log_commit(self, fsync: bool) -> int | None:
        """Append the ``COMMIT`` record and flush the log (the durability point).

        With ``fsync`` the commit survives power loss (``durability='commit'``);
        without, it survives a process crash only (``durability='checkpoint'``).
        Read-only transactions emitted no ``BEGIN`` and log nothing here either.
        Returns the commit record's LSN, or ``None`` for a read-only transaction.
        """
        if self._wal is None or not self._began:
            return None
        lsn = self._wal.append("COMMIT", self.txid)
        self._wal.flush(fsync=fsync)
        return lsn

    def log_abort(self) -> None:
        """Append the ``ABORT`` record so recovery never replays this transaction.

        Losing the record is harmless — a transaction with no outcome record
        is a loser and is discarded too — so the flush does not fsync.
        """
        if self._wal is None or not self._began:
            return
        self._wal.append("ABORT", self.txid)
        self._wal.flush(fsync=False)

    # -- recording (called from Relation mutation operators) -----------------------

    def before_mutation(self, relation: "Relation", op: str, **payload: Any) -> None:
        """Capture ``relation``'s before-image (first touch) and log ``op``.

        ``payload`` carries the redo description for the write-ahead log:
        ``record=`` for inserts, ``key=`` for deletes, ``elements=`` (the
        materialised new contents) for assigns; ``clear`` needs none.  The
        WAL record is appended *before* the caller applies the mutation, so
        the write-ahead invariant holds by construction.
        """
        key = id(relation)
        if key not in self._images:
            self._images[key] = (relation, relation.elements())
        self.operations.append((relation.name, op))
        if self._wal is not None:
            self._emit(relation, op, payload)

    def _emit(self, relation: "Relation", op: str, payload: dict[str, Any]) -> None:
        from repro.storage.serialize import encode_row

        wal = self._wal
        if not self._began:
            wal.append("BEGIN", self.txid)
            self._began = True
        if op == "insert":
            self.last_lsn = wal.append(
                "INSERT",
                self.txid,
                rel=relation.name,
                row=encode_row(payload["record"].values),
            )
        elif op == "delete":
            self.last_lsn = wal.append(
                "DELETE", self.txid, rel=relation.name, key=encode_row(payload["key"])
            )
        elif op == "assign":
            self.last_lsn = wal.append(
                "ASSIGN",
                self.txid,
                rel=relation.name,
                rows=[encode_row(record.values) for record in payload["elements"]],
            )
        else:  # clear
            self.last_lsn = wal.append("CLEAR", self.txid, rel=relation.name)

    # -- inspection -----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of journaled mutations."""
        return len(self.operations)

    def touched_relations(self) -> list[str]:
        """Names of the relations with a captured before-image (touch order)."""
        return [relation.name for relation, _ in self._images.values()]

    def relations(self) -> list["Relation"]:
        """The relation objects with a captured before-image (touch order)."""
        return [relation for relation, _ in self._images.values()]

    # -- replay -----------------------------------------------------------------------

    def rollback(self) -> None:
        """Restore every touched relation to its before-image.

        The journal must be detached from the relations first (the database's
        ``end_transaction`` does that) so the restoring ``assign`` calls are
        not themselves journaled.  Each restore runs through the ordinary
        mutation path, so indexes, heap pages, zone maps and the data-version
        epoch all follow the restored contents.

        A failing restore — typically an attached observer (index) raising
        from its maintenance hook — does **not** stop the rollback: the
        remaining before-images are still restored (losing them would turn
        one broken observer into wholesale data loss), and the failures are
        re-raised afterwards as a :class:`~repro.errors.TransactionError`
        chained to the first underlying exception.
        """
        if self._rolled_back:
            raise TransactionError("undo journal was already rolled back")
        self._rolled_back = True
        failures: list[tuple[str, Exception]] = []
        try:
            for relation, image in reversed(list(self._images.values())):
                if relation._journal is not None:  # pragma: no cover - defensive
                    raise TransactionError(
                        f"cannot roll back while relation {relation.name!r} is "
                        "still journaled; end the transaction first"
                    )
                try:
                    relation.assign(image)
                except Exception as exc:
                    failures.append((relation.name, exc))
        finally:
            # The restored state is the committed state now (even a partial
            # replay is as restored as it will ever be): snapshot pins may
            # serve the live dicts again.
            if self.on_rollback_finished is not None:
                self.on_rollback_finished(self)
        if failures:
            names = ", ".join(sorted(name for name, _ in failures))
            raise TransactionError(
                f"rollback completed with {len(failures)} failed restore(s) "
                f"on relation(s): {names}; remaining before-images were restored"
            ) from failures[0][1]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"UndoJournal({len(self.operations)} operation(s) over "
            f"{len(self._images)} relation(s))"
        )
