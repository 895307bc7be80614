"""The undo journal behind session transactions.

PASCAL/R embeds relation updates in a host program that manipulates the
database inside a controlled scope; the session layer of :mod:`repro.api`
reproduces that scope with ``begin``/``commit``/``rollback`` semantics over
the four tracked relation operators (``insert``, ``delete``, ``assign``,
``clear``).

A relation is a keyed set updated element-wise (``:+`` / ``:-``), and a key
identifies an element, so the unit of undo is the **key**, not the relation.
For every relation a transaction touches the journal keeps one map of
*before-values*: ``key -> the record it held when the transaction first
touched it, or None for "absent"``.  A transaction therefore costs what it
changes — five inserts remember five keys, however large the relation.
``assign`` and ``clear`` are O(|R|) themselves; they fall back to one
relation-level image, the committed element dict taken *by reference* (a
rebind never mutates the dict it replaces), after which further writes to
that relation record nothing.

**Before-values are absolute.**  "Set this key back to what it held before
the transaction" does not depend on what happened in between, so it is
idempotent and safe to apply at any moment: every before-value of a relation
applied to a copy of its live dict yields the committed contents, whether or
not the write a before-value guards has landed yet, and equally in the
middle of a rollback replay.  That is what lets the snapshot registry build
the committed image of a touched relation lazily, only for a reader that
pins mid-transaction (:meth:`UndoJournal.committed`), instead of copying
the dict on every transaction's first write.

``rollback`` sets each touched key back through the ordinary
:meth:`~repro.relational.relation.Relation.delete_key` /
:meth:`~repro.relational.relation.Relation.insert` operators (one
``assign`` for a relation-level image), journal detached.  Going through
the operators is the coherence rule the whole design leans on: statistics
follow back to the pre-transaction state, and the relation's contents
version and the database's ``data_version`` advance (versions stay monotonic), so collection-phase
memos, permanent indexes (re-derived per contents version, never
maintained) and cached service plans can never serve results computed from
the rolled-back data.
``schema_version`` is untouched — rollback is a pure data operation, catalog
changes (DDL) are not transactional — so cached plans remain exactly as
valid as they were before ``begin``.

**The contract** is value-exact, not layout-exact: rollback restores every
relation's *value* and leaves the database in exactly the state that
committing the transaction and then applying its inverse key by key would
have — elements the transaction deleted or overwrote are re-inserted, so
they move to the end of the iteration order; untouched elements keep their
relative order.  Keeping the old order would cost O(|R|) per transaction.

On a disk-resident database the journal's operation log doubles as the
transaction's **redo ops** — ``(relation, operator, row | key | rows)``, in
order — and :meth:`log_commit` writes them as one ``COMMIT`` frame: one
``json.dumps``, one CRC, one flush.  Recovery is redo-only and a checkpoint
is refused mid-transaction, so nothing uncommitted ever has to reach the
log, and a rollback writes nothing.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.record import Record
    from repro.relational.relation import Relation
    from repro.storage.wal import WriteAheadLog

__all__ = ["UndoJournal"]


class _Undo:
    """What one transaction remembers about one relation it touched."""

    __slots__ = ("relation", "version", "before", "image")

    def __init__(self, relation: "Relation") -> None:
        self.relation = relation
        #: The committed contents version (``_version`` at first touch).
        self.version = relation._version
        #: key -> the record it held at first touch (``None``: absent).
        self.before: dict[tuple, "Record | None"] = {}
        #: The committed element dict, once ``assign``/``clear`` made the
        #: relation-level image the cheaper thing to keep.
        self.image: dict[tuple, "Record"] | None = None

    def committed_elements(self) -> dict:
        """The committed element dict: the image, or live + before-values.

        Sets the keys back on a copy exactly as :meth:`UndoJournal.rollback`
        does on the relation (a key that already holds its before-value
        stays where it is, any other moves to the end), so an image taken
        here is element for element what a rollback at this moment would
        have left.
        """
        if self.image is not None:
            return self.image
        elements = self.relation._elements
        if self.before:
            elements = dict(elements)
            for key, held in self.before.items():
                if elements.get(key) != held:
                    elements.pop(key, None)
                    if held is not None:
                        elements[key] = held
        return elements


class UndoJournal:
    """Per-key before-values and an operation log for one transaction.

    A journal is attached to every base relation of a database by
    :meth:`~repro.relational.database.Database.begin_transaction`; the
    relation mutation operators call :meth:`before_mutation` *before*
    applying themselves — it logs the operation, in the redo form the
    commit frame writes on a durable database — and
    :meth:`remember` in the same registry-locked section as the dict write,
    so a pinning reader never meets a before-value map that is growing.
    """

    def __init__(self) -> None:
        # id(relation) -> what to put back.  Insertion order is first-touch
        # order; rollback replays it in reverse.
        self._undo: dict[int, _Undo] = {}
        #: ``(relation name, operator, redo argument)`` per journaled
        #: mutation, oldest first: the ops of the commit frame.
        self.operations: list[tuple[str, str, Any]] = []
        self._rolled_back = False
        #: Set by ``Database.abort_transaction``: tells ``end_transaction``
        #: that the outcome (the rollback replay) is still pending, so the
        #: snapshot registry must keep serving committed images.
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
        #: The thread that opened the transaction: the engine door reads its
        #: writes there, and the committed state on any other thread.
        self.thread = threading.get_ident()

    # -- WAL binding (durable databases only) ----------------------------------------

    def bind_wal(self, wal: "WriteAheadLog", txid: int) -> None:
        """Log this transaction's commit frame to ``wal`` as ``txid``."""
        self._wal = wal
        self.txid = txid

    def log_commit(self, fsync: bool) -> int | None:
        """Append the ``COMMIT`` frame and flush the log (the durability point).

        The frame carries the transaction's redo ops.  With ``fsync`` the
        commit survives power loss (``durability='commit'``); without, it
        survives a process crash only (``durability='checkpoint'``).  Returns the frame's LSN, or ``None``
        when nothing was logged (in memory, or a read-only transaction).
        """
        if self._wal is None or not self.operations:
            return None
        lsn = self._wal.append("COMMIT", self.txid, ops=self.operations)
        self._wal.flush(fsync=fsync)
        return lsn

    # -- recording (called from Relation mutation operators) -----------------------

    def before_mutation(self, relation: "Relation", op: str, argument: Any = None) -> None:
        """Log ``op`` on ``relation`` before it is applied.

        ``argument`` is the redo description: the record for an insert, the
        stored key for a delete, the materialised new records for an
        assign; ``clear`` needs none.  The operation log keeps the values
        (not the records), the form the commit frame writes.

        ``assign`` and ``clear`` also take their undo here, the
        relation-level image; the row-level operators report the one key
        they are about to change through :meth:`remember`.
        """
        if op == "insert":
            argument = argument.values
        elif op == "assign":
            argument = [record.values for record in argument]
        self.operations.append((relation.name, op, argument))
        if op == "assign" or op == "clear":
            self._remember_all(relation)

    def remember(self, relation: "Relation", key: tuple, held: "Record | None") -> None:
        """``relation`` is about to change ``key``, which holds ``held`` (or nothing).

        Called with ``relation``'s registry lock held, in the same locked
        section as the dict write, so the snapshot registry — which reads
        the before-values under that lock — never iterates a growing map.
        Only the first touch of a key counts: the before-value is what the
        key held when the transaction began.
        """
        undo = self._entry(relation)
        if undo.image is None and key not in undo.before:
            undo.before[key] = held

    def _remember_all(self, relation: "Relation") -> None:
        """Keep ``relation``'s whole committed dict (before ``assign``/``clear``).

        By reference when this is the relation's first touch — the live dict
        *is* the committed one, and the rebind that follows replaces it
        without mutating it.  After row-level writes the committed dict is
        reconstructed (or taken from the overlay, if a mid-transaction pin
        already paid for it); the rebind is O(|R|) anyway.
        """
        registry = relation._registry
        with registry.lock:
            undo = self._entry(relation)
            if undo.image is None:
                stashed = registry.overlay.get(relation.name)
                undo.image = (
                    stashed[0] if stashed is not None else undo.committed_elements()
                )

    def _entry(self, relation: "Relation") -> _Undo:
        """``relation``'s undo entry, created at its first touch."""
        undo = self._undo.get(id(relation))
        if undo is None:
            undo = self._undo[id(relation)] = _Undo(relation)
        return undo

    # -- inspection -----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of journaled mutations."""
        return len(self.operations)

    def touched_relations(self) -> list[str]:
        """Names of the relations this transaction changed (touch order)."""
        return [undo.relation.name for undo in self._undo.values()]

    def relations(self) -> list["Relation"]:
        """The relation objects this transaction changed (touch order)."""
        return [undo.relation for undo in self._undo.values()]

    # -- the committed state, for the snapshot registry --------------------------------

    def committed(self, relation: "Relation") -> tuple[dict, int] | None:
        """``(committed element dict, committed version)`` of a touched relation.

        ``None`` for a relation this transaction has not touched (its live
        dict is the committed one).  Builds the image of a relation with
        row-level writes — ``dict(live)`` plus the before-values — on every
        call: the registry, which calls this with its lock held, keeps the
        answer in its overlay for the rest of the transaction.
        """
        undo = self._undo.get(id(relation))
        if undo is None:
            return None
        return undo.committed_elements(), undo.version

    def committed_version(self, relation: "Relation") -> int:
        """The contents version of ``relation`` that pins see while this runs."""
        undo = self._undo.get(id(relation))
        return relation._version if undo is None else undo.version

    # -- replay -----------------------------------------------------------------------

    def rollback(self) -> None:
        """Set every touched key back to its before-value.

        The journal must be detached from the relations first (the database's
        ``end_transaction`` does that) so the restoring operators are not
        themselves journaled.  Most recently touched relation first; within
        a relation, keys in first-touch order: a key that held nothing is
        deleted, a key whose element was deleted or overwritten gets it back
        through ``delete_key`` + ``insert`` (so it moves to the end of the
        iteration order), a key that holds its before-value again is left
        alone.  A relation-level image is restored by one ``assign``.  Every
        restore runs through the ordinary mutation path, so statistics and
        the version counters follow.

        A failing restore — a relation operator raising mid-replay — does
        **not** stop the rollback: the remaining before-values are still
        restored (losing them would turn one failing restore into wholesale
        data loss), and the failures are
        re-raised afterwards as a :class:`~repro.errors.TransactionError`
        chained to the first underlying exception.
        """
        if self._rolled_back:
            raise TransactionError("undo journal was already rolled back")
        self._rolled_back = True
        failures: list[tuple[str, Exception]] = []

        def attempt(relation: "Relation", operator, argument) -> None:
            try:
                operator(argument)
            except Exception as exc:
                failures.append((relation.name, exc))

        try:
            for undo in reversed(list(self._undo.values())):
                relation = undo.relation
                if relation._journal is not None:  # pragma: no cover - defensive
                    raise TransactionError(
                        f"cannot roll back while relation {relation.name!r} is "
                        "still journaled; end the transaction first"
                    )
                if undo.image is not None:
                    attempt(relation, relation.assign, undo.image.values())
                    continue
                for key, held in undo.before.items():
                    current = relation._elements.get(key)
                    if current == held:
                        continue
                    if current is not None:
                        attempt(relation, relation.delete_key, key)
                    if held is not None:
                        attempt(relation, relation.insert, held)
        finally:
            # The restored state is the committed state now (even a partial
            # replay is as restored as it will ever be): snapshot pins may
            # serve the live dicts again.
            if self.on_rollback_finished is not None:
                self.on_rollback_finished(self)
        if failures:
            names = ", ".join(sorted({name for name, _ in failures}))
            raise TransactionError(
                f"rollback completed with {len(failures)} failed restore(s) "
                f"on relation(s): {names}; remaining before-images were restored"
            ) from failures[0][1]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"UndoJournal({len(self.operations)} operation(s) over "
            f"{len(self._undo)} relation(s))"
        )
