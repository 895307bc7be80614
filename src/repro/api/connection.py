"""The connection front door: ``repro.connect(database)``.

A :class:`Connection` is the stable handle a client program holds onto — the
role the PASCAL/R database module plays for an embedded host program, shaped
like the connection objects every system in the Wisconsin lineage grew.  It
owns the prepared-query :class:`~repro.service.QueryService` (and with it
the plan cache and the execution lock that serializes work over the shared
engine), and hands out:

* :class:`~repro.api.cursor.Cursor` objects — DB-API-flavoured, streaming:
  fetches pull rows off the live operator pipeline one construction
  dereference at a time;
* :class:`~repro.api.session.Session` objects — context-managed
  transactional scopes with ``begin``/``commit``/``rollback`` over an undo
  journal, plus per-session strategy/service option overrides.

Connections are thread-safe: compilation and every pipeline step run under
one reentrant execution lock, so any number of threads can share a
connection with their own cursors.  ``close()`` is explicit and idempotent;
a close with a transaction still active rolls it back.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Mapping, Sequence

from repro.api.cursor import Cursor
from repro.api.session import Session
from repro.config import DURABILITY_COMMIT, ServiceOptions, StrategyOptions
from repro.errors import ConnectionClosedError
from repro.service.service import QueryService

__all__ = ["Connection", "connect"]


def connect(
    database,
    options: StrategyOptions | None = None,
    service_options: ServiceOptions | None = None,
    durability: str | None = None,
) -> "Connection":
    """Open a connection to ``database`` — an object, or a directory path.

    The public entry point of the library:

    >>> import repro
    >>> db = repro.build_university_database(scale=1)
    >>> with repro.connect(db) as connection:
    ...     cursor = connection.execute(
    ...         "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]"
    ...     )
    ...     first = cursor.fetchone()

    Passing a path (``str`` / ``os.PathLike``) instead of a database object
    opens a *disk-resident* database in that directory (created when
    missing): the checkpoint snapshot is loaded, crash recovery replays the
    write-ahead log's committed suffix, and the connection owns the database
    — closing the connection checkpoints and closes it.  ``durability``
    picks the mode (:data:`~repro.config.DURABILITY_COMMIT` by default; see
    :data:`~repro.config.DURABILITY_MODES`) and is only meaningful with a
    path.

    ``options`` become the connection's default
    :class:`~repro.config.StrategyOptions` (the full PASCAL/R optimizer when
    omitted); ``service_options`` tune the owned
    :class:`~repro.service.QueryService` exactly as they do on the service
    itself.
    """
    return Connection(
        database,
        options=options,
        service_options=service_options,
        durability=durability,
    )


class Connection:
    """A thread-safe handle on one database: cursors, sessions, plan cache."""

    def __init__(
        self,
        database,
        options: StrategyOptions | None = None,
        service_options: ServiceOptions | None = None,
        durability: str | None = None,
    ) -> None:
        if isinstance(database, (str, os.PathLike)):
            from repro.relational.database import Database

            database = Database.open(
                database, durability=durability or DURABILITY_COMMIT
            )
            self._owns_database = True
        else:
            self._owns_database = False
        self._database = database
        self._service = QueryService(
            database,
            options=options,
            service_options=service_options,
        )
        self._lock = self._service._execution_lock
        self._closed = False
        self._active_session: Session | None = None
        # Every cursor opened on this connection (weakly, so an abandoned
        # cursor is collectable): rollback walks them to finalize live-path
        # streams whose underlying state it is about to replay away.
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

    # -- introspection -----------------------------------------------------------------

    @property
    def database(self):
        """The database this connection serves."""
        return self._database

    @property
    def service(self) -> QueryService:
        """The owned prepared-query service (plan cache, execution lock)."""
        return self._service

    @property
    def options(self) -> StrategyOptions:
        """The connection's default strategy options."""
        return self._service.options

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")

    def cache_info(self) -> dict:
        """Plan-cache occupancy and hit/miss counters."""
        return self._service.cache_info()

    @property
    def recovery_report(self):
        """What crash recovery found when a path-opened database came up.

        ``None`` for connections handed a database object (no open ran).
        """
        return getattr(self._database, "recovery_report", None)

    def checkpoint(self) -> None:
        """Force the disk-resident database to disk and truncate its WAL.

        Serialized with the connection's cursors and sessions via the
        execution lock.  Raises on an in-memory database or while a
        transaction is active.
        """
        self._check_open()
        with self._lock:
            self._database.checkpoint()

    # -- cursors and queries -----------------------------------------------------------

    def cursor(self) -> Cursor:
        """A new streaming cursor on this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, query, parameters: Mapping[str, Any] | None = None) -> Cursor:
        """Open a cursor, execute ``query`` on it and return it (DB-API style)."""
        return self.cursor().execute(query, parameters)

    def executemany(
        self, query, seq_of_parameters: Sequence[Mapping[str, Any] | None]
    ) -> Cursor:
        """Open a cursor, batch-execute ``query`` on it and return it."""
        return self.cursor().executemany(query, seq_of_parameters)

    def prepare(self, query, options: StrategyOptions | None = None):
        """Compile ``query`` once (or fetch it from the plan cache)."""
        self._check_open()
        return self._service.prepare(query, options)

    # -- sessions ----------------------------------------------------------------------

    def session(
        self,
        options: StrategyOptions | None = None,
        service_options: ServiceOptions | None = None,
    ) -> Session:
        """A transactional session, optionally with per-session option overrides."""
        self._check_open()
        return Session(self, options=options, service_options=service_options)

    def _register_session(self, session: Session) -> None:
        self._active_session = session

    def _unregister_session(self, session: Session) -> None:
        if self._active_session is session:
            self._active_session = None

    def _track_cursor(self, cursor: Cursor) -> None:
        self._cursors.add(cursor)

    def _finalize_open_streams(self, reason: str) -> None:
        """Close every open live-path result set before its state vanishes.

        Called by :meth:`Session.rollback`: a cursor mid-drain over the
        pre-rollback contents would otherwise keep pulling rows from
        relations the replay is about to overwrite — silently mixing old
        and new state.  Runs under the execution lock, so no stream is
        advanced while it is being finalized; affected cursors raise
        :class:`~repro.errors.CursorError` with ``reason`` on their next
        fetch.  Snapshot cursors are exempt (their pinned state is
        immutable and unaffected by the replay).
        """
        with self._lock:
            for cursor in list(self._cursors):
                cursor._invalidate(reason)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; double close is a no-op.

        An active session transaction is rolled back (the DB-API convention:
        only an explicit commit makes work permanent).  Cursors of a closed
        connection refuse further fetches.  A connection that opened its
        database from a path also checkpoints and closes the database.
        """
        if self._closed:
            return
        session = self._active_session
        if session is not None and session.in_transaction:
            session.rollback()
        # Shut down open result sets (streams release pipeline-breaker state,
        # pinned pages and pinned snapshots) without marking the cursors
        # closed: their fetches keep raising ConnectionClosedError.
        with self._lock:
            for cursor in list(self._cursors):
                if not cursor.closed:
                    cursor._discard()
        self._closed = True
        if self._owns_database and not getattr(self._database, "closed", True):
            self._database.close()

    def __enter__(self) -> "Connection":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "closed" if self._closed else "open"
        return f"Connection({self._database.name!r}, {state})"
