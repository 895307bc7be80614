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
without the engine ever materialising the full result (``fetchall`` pulls full chunks).

Every result set reads its own pinned snapshot, so a pull takes no lock and
any number of open cursors (plus whole-query executions from other threads)
interleave freely on one connection.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable
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


#: ``id(schema)`` -> the description of its result sets; an entry goes with its schema.
_DESCRIPTIONS: dict[int, list[Column]] = {}


class Cursor:
    """Streaming row retrieval over one connection (or session).

    Cursors are produced by :meth:`Connection.cursor` /
    :meth:`Session.cursor`; a session cursor runs under the session's
    strategy/service option overrides.

    A result set is one statement on one pinned snapshot: it returns exactly
    the state at its ``execute``, across the writes, commits and rollbacks
    that follow — a rollback invalidates no cursor.
    """

    def __init__(self, connection, service=None, session=None) -> None:
        self._connection = connection
        self._service = service if service is not None else connection.service
        self._session = session
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
        if self._rows is None:
            raise CursorError("cursor has no result set; call execute() first")

    # -- execution ---------------------------------------------------------------------

    def execute(
        self, query, parameters: Mapping[str, Any] | None = None
    ) -> "Cursor":
        """Prepare (or reuse) ``query``, bind ``parameters``, open the pipeline.

        Returns the cursor itself (the DB-API convention), with
        :attr:`description` available immediately — no row has flowed yet.

        It runs on a pin (:meth:`QueryService.start
        <repro.service.QueryService.start>`) and takes no lock, here or in any
        fetch: a session cursor inside a transaction pins that transaction's
        writes up to this call, any other cursor the committed state.
        """
        self._check_open()
        self._discard()
        self._install(self._service.start(query, parameters, journal=self._journal()))
        return self

    def _journal(self):
        """The open transaction a statement of this cursor reads, if any."""
        return None if self._session is None else self._session.journal

    def executemany(
        self, query, seq_of_parameters: Sequence[Mapping[str, Any] | None]
    ) -> "Cursor":
        """Execute ``query`` once per binding set, concatenating the results.

        One :meth:`QueryService.execute_batch
        <repro.service.QueryService.execute_batch>`: the bindings run one
        after another through the handle's per-binding memos, each on a pin
        as :meth:`execute` takes it; rows come back in request order (this
        path materialises — streaming applies to :meth:`execute`).
        ``seq_of_parameters`` that is no iterable is a
        :class:`~repro.errors.BindingError`.
        """
        self._check_open()
        if not isinstance(seq_of_parameters, Iterable):
            raise BindingError(
                "seq_of_parameters is an iterable of binding sets, "
                f"not {type(seq_of_parameters).__name__}"
            )
        self._discard()
        requests = [(query, parameters) for parameters in seq_of_parameters]
        if not requests:
            self._rows = iter(())
            self._known_rowcount = 0
            return self
        results = self._service.execute_batch(requests, journal=self._journal())
        rows = [row for result in results for row in result.rows]
        self._result = results[-1]
        self._description = self._describe(results[0].relation.schema)
        self._rows = iter([rows] if rows else ())
        self._known_rowcount = len(rows)
        return self

    def _install(self, result) -> None:
        self._result = result
        self._description = self._describe(result.relation.schema)
        self._rows = result.row_iterator

    @staticmethod
    def _describe(schema) -> list[Column]:
        """The description of ``schema``'s result sets, built once per schema."""
        description = _DESCRIPTIONS.get(id(schema))
        if description is None:
            description = [Column(name=field.name, type_code=field.type.name) for field in schema]
            _DESCRIPTIONS[id(schema)] = description
            weakref.finalize(schema, _DESCRIPTIONS.pop, id(schema), None)
        return list(description)

    # -- fetching ----------------------------------------------------------------------

    def _pull(self) -> bool:
        """Take the next chunk in hand — one pipeline step over this result
        set's pin; ``False`` when the result set is exhausted."""
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
        """Every remaining record as a list (drains the pipeline, in full chunks)."""
        self._check_result()
        if self._result is not None:
            self._result.demand.full = True
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

        The final snapshot (the result's stamp) once the result set is
        exhausted or the cursor is closed; while rows are pending, the
        execution's counters as they stand (``QueryResult.tracker``).

        A cursor owns its pin's *private* counters: exactly this execution's
        reads and its plan-cache lookup, merged into the database's shared
        tracker when the pin is released.
        """
        if self._final_statistics is not None:
            return self._final_statistics
        result = self._result
        if result is None:
            return self._connection.database.statistics.as_dict()
        return result.statistics or result.tracker.as_dict()

    # -- lifecycle ---------------------------------------------------------------------

    def _discard(self, keep_counters: bool = False) -> None:
        """Shut down the open pipeline (if any) and reset the result state.

        Closing the result unwinds the pipeline, stamps its final statistics
        and releases a pinned snapshot.  A closing cursor or connection
        (``keep_counters``) keeps only the ended execution's stamp, so
        ``statistics`` stays this execution's numbers while its result is freed.
        """
        self._rows, self._chunk, self._taken = None, [], 0
        result = self._result
        if result is not None:
            result.close()
            if keep_counters:
                self._final_statistics = result.statistics
        self._result = None
        self._description = None
        self._fetched = 0
        self._known_rowcount = None
        self._exhausted = False

    def close(self) -> None:
        """Close the cursor, releasing the pipeline; double close is a no-op.

        Closing propagates into the operator generators' ``finally`` clauses,
        so pipeline-breaker state and the pinned snapshot are released even
        when the result set was only partially fetched.
        """
        if self._closed:
            return
        self._discard(keep_counters=True)
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
