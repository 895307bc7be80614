"""Transactional sessions over one connection.

PASCAL/R is an *embedded* database language: the host program opens a
database and manipulates its relations inside a controlled scope.  A
:class:`Session` reproduces that scope for the library — a context-managed
unit of work with ``begin`` / ``commit`` / ``rollback`` backed by the
relational layer's :class:`~repro.relational.journal.UndoJournal`:

>>> with connection.session() as session:          # doctest: +SKIP
...     session.database.relation("papers").insert({...})
...     raise RuntimeError("changed my mind")      # -> automatic rollback

While a transaction is active, every tracked mutation of every base relation
(``insert`` / ``delete`` / ``assign`` / ``clear``) is journaled — per key,
what the key held before — and rollback sets each touched key back through
the ordinary relation operators, so heap pages, zone maps, the contents
versions permanent indexes are derived under and the ``data_version`` epoch
all follow the restored contents (see the
journal module for the coherence rule and the exact contract).  A
transaction costs what it changes, not what its relations hold.  Catalog
changes (DDL) are deliberately *not* transactional.

A session can also carry per-session :class:`~repro.config.StrategyOptions`
/ :class:`~repro.config.ServiceOptions` overrides: its cursors run under a
derived service that shares the connection's engine and plan cache.  Inside
a transaction they read its *statement snapshot*: its writes up to their
``execute`` and nothing later; outside one, the committed state.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.api.cursor import Cursor
from repro.config import ServiceOptions, StrategyOptions
from repro.errors import ConnectionClosedError, TransactionError

__all__ = ["Session"]


class Session:
    """A transactional unit of work on a connection.

    Produced by :meth:`Connection.session`; usable either context-managed
    (enter begins, clean exit commits, an exception rolls back) or through
    explicit :meth:`begin` / :meth:`commit` / :meth:`rollback` calls.  A
    session object is reusable: each ``with`` block (or begin/commit pair)
    is one transaction.
    """

    def __init__(
        self,
        connection,
        options: StrategyOptions | None = None,
        service_options: ServiceOptions | None = None,
    ) -> None:
        self._connection = connection
        if options is not None or service_options is not None:
            self._service = connection.service.derive(
                options=options, service_options=service_options
            )
        else:
            self._service = connection.service
        self._journal = None
        self._closed = False

    # -- introspection -----------------------------------------------------------------

    @property
    def connection(self):
        """The connection this session runs on."""
        return self._connection

    @property
    def database(self):
        """The underlying database (mutate its relations inside a transaction)."""
        return self._connection.database

    @property
    def options(self) -> StrategyOptions:
        """The strategy options this session's cursors execute under."""
        return self._service.options

    @property
    def service_options(self) -> ServiceOptions:
        return self._service.service_options

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is currently active on this session."""
        return self._journal is not None

    @property
    def journal(self):
        """The active transaction's undo journal (``None`` outside one)."""
        return self._journal

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("session is closed")
        self._connection._check_open()

    # -- transaction control -----------------------------------------------------------

    def begin(self) -> "Session":
        """Open a transaction: journal all tracked mutations until commit/rollback.

        Raises :class:`~repro.errors.TransactionError` when this session (or
        any other session of the database) already has an active transaction
        — writers are serialized at the database, there is no nesting.  With
        a positive ``ServiceOptions.busy_timeout``, a begin that finds
        another transaction active waits up to that many seconds for the
        slot to free before raising.
        """
        self._check_open()
        if self._journal is not None:
            raise TransactionError("session already has an active transaction")
        self._journal = self.database.begin_transaction(
            timeout=self.service_options.busy_timeout
        )
        self._connection._register_session(self)
        return self

    def commit(self) -> None:
        """Make the transaction's mutations permanent and end it.

        On a disk-resident database this is the durability point: the WAL's
        ``COMMIT`` frame, holding the transaction's redo ops, is appended
        and flushed first (fsynced under
        ``durability='commit'``), so by the time the in-memory transaction
        ends, crash recovery can replay it.  The undo journal itself is
        simply discarded — the mutations already applied through the
        ordinary relation operators (and already moved the pages and
        version epochs), so there is nothing to replay.  A
        checkpoint deferred by mid-transaction DDL runs now.
        """
        journal = self._require_transaction()
        self.database.commit_transaction(journal)
        self.database.end_transaction(journal)
        self._journal = None
        self._connection._unregister_session(self)
        self.database.run_pending_checkpoint()

    def rollback(self) -> None:
        """Undo every journaled mutation and end the transaction.

        Sets every key the transaction touched back to what it held before
        (most recently touched relation first) through the ordinary
        ``delete_key`` / ``insert`` operators — one ``assign`` for a
        relation the transaction assigned or cleared — so statistics follow
        back, paged relations keep their heap files and zone maps in step,
        and the contents versions and the data-version epoch advance, so no
        permanent index view or cached collection structure can survive from
        the rolled-back state.  The cost is proportional to what the
        transaction changed.

        Rollback is **value-exact**: every relation holds exactly the
        elements it held at ``begin``, and the database is in the state that
        committing the transaction and then applying its inverse key by key
        would have produced.  Elements the transaction deleted or overwrote
        are re-inserted, so they move to the end of the iteration order
        (dict and heap alike); untouched elements keep their relative
        order; nothing is repacked.  The catalog (``schema_version``) is
        untouched: plans valid before ``begin`` are exactly as valid
        afterwards.  Nothing is logged: the abandoned operations never
        reach a commit frame, so recovery never replays them.

        Rollback invalidates nothing: every open result set holds its own
        pin, so a cursor still draining one — a statement of this very
        transaction included — keeps returning exactly the state at its
        ``execute``; the replay copies on write around it.
        """
        journal = self._require_transaction()
        self.database.abort_transaction(journal)
        # Detach first: the restoring operators must not journal themselves.
        # The database's transaction slot stays held until the replay below
        # completes (the journal's completion callback frees it), so a
        # concurrent begin() can never attach a fresh journal to relations
        # whose contents are still being restored.
        self.database.end_transaction(journal)
        self._journal = None
        self._connection._unregister_session(self)
        try:
            journal.rollback()
        finally:
            self.database.run_pending_checkpoint()

    def _require_transaction(self):
        self._check_open()
        if self._journal is None:
            raise TransactionError("session has no active transaction")
        return self._journal

    # -- query execution ---------------------------------------------------------------

    def cursor(self) -> Cursor:
        """A new cursor running under this session's option overrides."""
        self._check_open()
        return Cursor(self._connection, service=self._service, session=self)

    def execute(self, query, parameters: Mapping[str, Any] | None = None) -> Cursor:
        """Open a cursor, execute ``query`` on it and return it."""
        return self.cursor().execute(query, parameters)

    def executemany(
        self, query, seq_of_parameters: Sequence[Mapping[str, Any] | None]
    ) -> Cursor:
        """Open a cursor, batch-execute ``query`` on it and return it."""
        return self.cursor().executemany(query, seq_of_parameters)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Roll back any active transaction and close; double close is a no-op."""
        if self._closed:
            return
        if self._journal is not None:
            self.rollback()
        self._closed = True

    def __enter__(self) -> "Session":
        if self._journal is None:
            self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._journal is None:
            # The body committed or rolled back explicitly; nothing pending.
            return
        if exc_type is not None:
            self.rollback()
        else:
            self.commit()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "closed" if self._closed else (
            "in transaction" if self.in_transaction else "idle"
        )
        return f"Session({self.database.name!r}, {state})"
