"""DB-API-flavoured cursors with end-to-end streaming fetches.

A :class:`Cursor` is the retrieval half of the connection front door.  Its
shape follows PEP 249 (``execute`` / ``executemany`` / ``fetchone`` /
``fetchmany`` / ``fetchall`` / ``description`` / iteration), but its fetches
are genuinely incremental: ``execute`` compiles (or reuses) the plan and
wires the pipeline, and the fetches then take their rows from the chunk in
hand — a list of records off :attr:`QueryResult.row_iterator
<repro.engine.evaluator.QueryResult.row_iterator>` — and pull the next one
when it is used up: a selection reads its range, the construction phase
dereferences reference tuples, *as they are fetched* (in chunks of 1, 2, 4,
... rows: a prefix, at most one chunk ahead), so the client sees first rows
without the engine ever materialising the full result.

A pull re-acquires the connection's execution lock around the pipeline step
(once per chunk, not per row), so any number of open cursors (plus
whole-query executions from other threads) interleave safely on one
connection.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import nullcontext
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import BindingError, CursorError

__all__ = ["Column", "Cursor"]


class Column(NamedTuple):
    """One entry of :attr:`Cursor.description` (the PEP 249 7-tuple)."""

    name: str
    type_code: str
    display_size: None = None
    internal_size: None = None
    precision: None = None
    scale: None = None
    null_ok: bool = False


class Cursor:
    """Streaming row retrieval over one connection (or session).

    Cursors are produced by :meth:`Connection.cursor` /
    :meth:`Session.cursor`; a session cursor runs under the session's
    strategy/service option overrides.
    """

    def __init__(self, connection, service=None, session=None) -> None:
        self._connection = connection
        self._service = service if service is not None else connection.service
        self._session = session
        self._lock = connection._lock
        #: Rows an argument-less :meth:`fetchmany` returns (the DB-API default).
        self.arraysize: int = 1
        self._closed = False
        self._result = None
        self._rows: Iterator[list] | None = None
        # The chunk in hand and how many of its records were handed out.
        self._chunk: list = []
        self._taken = 0
        self._description: list[Column] | None = None
        self._fetched = 0
        self._known_rowcount: int | None = None
        self._exhausted = False
        self._final_statistics: dict | None = None
        # Whether the current result set runs on a pinned snapshot (fetches
        # then skip the execution lock entirely).
        self._snapshot = False
        # Reason string set when a transaction rollback finalized this
        # cursor's open stream; fetches raise it until the next execute.
        self._invalidated: str | None = None
        connection._track_cursor(self)

    # -- guards ------------------------------------------------------------------------

    def _check_open(self) -> None:
        # A closed *cursor* is a cursor-protocol error; a closed *connection*
        # (checked next) still surfaces as ConnectionClosedError.
        if self._closed:
            raise CursorError("cursor is closed")
        self._connection._check_open()

    def _check_result(self) -> None:
        self._check_open()
        if self._invalidated is not None:
            raise CursorError(self._invalidated)
        if self._rows is None:
            raise CursorError("cursor has no result set; call execute() first")

    # -- execution ---------------------------------------------------------------------

    def execute(
        self, query, parameters: Mapping[str, Any] | None = None
    ) -> "Cursor":
        """Prepare (or reuse) ``query``, bind ``parameters``, open the pipeline.

        Returns the cursor itself (the DB-API convention), with
        :attr:`description` available immediately — no row has flowed yet.

        A connection-level cursor (no session) executes against a pinned
        copy-on-write snapshot: compilation, execution and every subsequent
        fetch run *outside* the execution lock, concurrently with other
        readers and with a writer session.  Session cursors run on the live
        database under the lock, so a transaction reads its own writes.
        That choice is all that differs: both go through
        :meth:`QueryService.start <repro.service.QueryService.start>`.
        """
        self._check_open()
        pin = self._session is None
        with nullcontext() if pin else self._lock:
            with self._lock:
                self._discard()
            result = self._service.start(query, parameters, pin=pin)
            # Install under the lock with the snapshot flag set first:
            # Connection._finalize_open_streams (a concurrent rollback on
            # this connection) runs under the same lock and skips snapshot
            # cursors — it must never observe the fresh stream with
            # _snapshot still False and close it as a live-path leftover.
            with self._lock:
                self._snapshot = pin
                self._install(result)
        return self

    def executemany(
        self, query, seq_of_parameters: Sequence[Mapping[str, Any] | None]
    ) -> "Cursor":
        """Execute ``query`` once per binding set, concatenating the results.

        One :meth:`QueryService.execute_batch
        <repro.service.QueryService.execute_batch>`: the bindings run one
        after another through the handle's per-binding memos, on the live
        database under the execution lock; rows come back in request order
        (this path materialises — streaming applies to :meth:`execute`).
        ``seq_of_parameters`` that is no iterable is a
        :class:`~repro.errors.BindingError`.
        """
        self._check_open()
        if not isinstance(seq_of_parameters, Iterable):
            raise BindingError(
                "seq_of_parameters is an iterable of binding sets, "
                f"not {type(seq_of_parameters).__name__}"
            )
        with self._lock:
            self._discard()
            requests = [(query, parameters) for parameters in seq_of_parameters]
            if not requests:
                self._rows = iter(())
                self._known_rowcount = 0
                return self
            results = self._service.execute_batch(requests)
            rows = [row for result in results for row in result.rows]
            self._result = results[-1]
            self._description = self._describe(results[0].relation.schema)
            self._rows = iter([rows] if rows else ())
            self._known_rowcount = len(rows)
            self._final_statistics = None
        return self

    def _install(self, result) -> None:
        self._result = result
        self._description = self._describe(result.relation.schema)
        self._rows = result.row_iterator
        self._final_statistics = None

    @staticmethod
    def _describe(schema) -> list[Column]:
        return [Column(name=field.name, type_code=field.type.name) for field in schema]

    # -- fetching ----------------------------------------------------------------------

    def _pull(self) -> bool:
        """Take the next chunk in hand — one pipeline step, under the execution
        lock unless the result set is a snapshot's (immutable, and private to
        this cursor); ``False`` when the result set is exhausted."""
        if self._snapshot:
            chunk = next(self._rows, None)
        else:
            with self._lock:
                chunk = next(self._rows, None)
        if chunk is None:
            self._exhausted = True
            return False
        self._chunk, self._taken = chunk, 0
        return True

    def fetchone(self):
        """The next result record, or ``None`` when the result set is exhausted.

        The first fetch pulls a one-row chunk through the pipeline; later
        ones take from the chunk in hand or pull the next, twice as long.
        """
        self._check_result()
        if self._taken == len(self._chunk) and not self._pull():
            return None
        record = self._chunk[self._taken]
        self._taken += 1
        self._fetched += 1
        return record

    def fetchmany(self, size: int | None = None) -> list:
        """The next ``size`` records (default :attr:`arraysize`) as a list.

        ``fetchmany(0)`` is a valid request for no rows (it returns ``[]``
        without touching the pipeline); a negative size raises
        :class:`~repro.errors.CursorError`.
        """
        self._check_result()
        if size is None:
            size = self.arraysize
        elif size < 0:
            raise CursorError(f"fetchmany() size must be non-negative, got {size}")
        batch: list = []
        while len(batch) < size and (self._taken < len(self._chunk) or self._pull()):
            part = self._chunk[self._taken : self._taken + size - len(batch)]
            self._taken += len(part)
            batch += part
        self._fetched += len(batch)
        return batch

    def fetchall(self) -> list:
        """Every remaining record as a list (drains the pipeline)."""
        self._check_result()
        batch = self._chunk[self._taken :]
        while self._pull():
            batch.extend(self._chunk)
        self._chunk, self._taken = [], 0
        self._fetched += len(batch)
        return batch

    def __iter__(self) -> Iterator:
        """Iterate over the remaining records, one pipeline step per chunk."""
        while (record := self.fetchone()) is not None:
            yield record

    # -- introspection -----------------------------------------------------------------

    @property
    def description(self) -> list[Column] | None:
        """Per-component :class:`Column` 7-tuples of the current result set."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Distinct rows in the result set: ``-1`` until known.

        Streaming keeps the total unknowable up front; it becomes available
        once the result set is exhausted (``executemany`` knows immediately).
        """
        if self._known_rowcount is not None:
            return self._known_rowcount
        if self._exhausted:
            return self._fetched
        return -1

    @property
    def result(self):
        """The underlying :class:`~repro.engine.evaluator.QueryResult`.

        Its ``relation`` holds the rows fetched so far (it fills as the
        cursor drains); trace/combination/collection reports are available
        for EXPLAIN-style introspection.
        """
        return self._result

    @property
    def statistics(self) -> dict:
        """Access-counter snapshot for this cursor's execution.

        The final snapshot once the result set is exhausted or the cursor is
        closed; a live snapshot of the counters while rows are pending.

        A snapshot-read cursor owns *private* counters (exactly this
        execution's reads, merged into the database's shared tracker when
        the stream finishes).  A live-path cursor reports the database's
        shared :class:`~repro.relational.statistics.AccessStatistics`: every
        execution on the connection resets them, so a cursor whose drain
        interleaved with other executions reports the interleaved activity
        too — results are unaffected, only the accounting attribution blurs.
        """
        if self._final_statistics is not None:
            return self._final_statistics
        if self._result is not None and self._result.statistics and (
            self._snapshot or self._exhausted
        ):
            return self._result.statistics
        return self._connection.database.statistics.as_dict()

    # -- lifecycle ---------------------------------------------------------------------

    def _discard(self) -> None:
        """Shut down the open pipeline (if any) and reset the result state."""
        self._end_result()
        self._result = None
        self._description = None
        self._fetched = 0
        self._known_rowcount = None
        self._exhausted = False
        self._snapshot = False
        self._invalidated = None

    def _end_result(self) -> None:
        """End the current execution, fetched to its end or never fetched at all.

        Closing the result unwinds the pipeline, stamps its final statistics
        and releases a pinned snapshot; the stamp is kept, so ``statistics``
        stays this execution's numbers after close (until the next execute).
        """
        self._rows, self._chunk, self._taken = None, [], 0
        if self._result is not None:
            self._result.close()
            if self._result.statistics:
                self._final_statistics = self._result.statistics

    def _invalidate(self, reason: str) -> None:
        """Finalize an open live-path stream because its state is going away.

        Called (under the execution lock) when the session's transaction
        rolls back while this cursor still holds an open ``RowStream`` over
        the pre-rollback state: the stream is closed — its finalizers
        release pipeline-breaker state and pinned pages — and subsequent
        fetches raise :class:`~repro.errors.CursorError` with ``reason``.
        Snapshot cursors are untouched (their pinned state is immutable and
        independent of the rollback), as are exhausted or idle cursors.
        """
        if self._closed or self._snapshot or self._exhausted or self._rows is None:
            return
        self._end_result()
        self._invalidated = reason

    def close(self) -> None:
        """Close the cursor, releasing the pipeline; double close is a no-op.

        Closing propagates into the operator generators' ``finally`` clauses,
        so pipeline-breaker state and pinned buffer-pool pages are released
        even when the result set was only partially fetched.
        """
        if self._closed:
            return
        with self._lock:
            self._discard()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "closed" if self._closed else (
            "exhausted" if self._exhausted else
            ("open" if self._rows is not None else "idle")
        )
        return f"Cursor({state}, fetched={self._fetched})"
