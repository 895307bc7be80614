"""The streaming operator protocol of the pipelined execution core.

Section 3.3's evaluation procedure materialises every intermediate n-tuple
reference relation, and the paper's cost model identifies exactly those
relations as the dominant cost of the combination phase.  The streaming
executor replaces the materialise-everything discipline with a pull-based
operator pipeline: each relational-algebra kernel offers a variant that
consumes and produces :class:`RowStream` values, so a conjunction's join
chain, its quantifier eliminations and the construction-phase dereference
run pipelined and only *pipeline breakers* (division, union dedup state)
ever buffer tuples.

A :class:`RowStream` is deliberately tiny: a
:class:`~repro.types.schema.RelationSchema` plus a single-use iterator of
**chunks** — lists of raw value tuples (the storage representation of
:class:`~repro.relational.record.Record`) — with :meth:`RowStream.materialize`
as the escape hatch back into a :class:`~repro.relational.relation.Relation`.
The chunk is the unit that flows (:meth:`RowStream.chunks`): an operator
pays its frame and its accounting once per chunk and runs one comprehension
over the rows inside.  Sources cut chunks of 1, 2, 4, ... :data:`CHUNK_ROWS`
rows (:func:`ramped`), so the first fetch and an early ``close()`` touch a
prefix of the input, at most one chunk ahead of the rows handed out; once the
execution's :class:`Demand` is full (a drain, ``fetchall``), :data:`CHUNK_ROWS`
rows each.  A division's sources read that cell too: full chunks beneath it on a
``fetchone`` kept more fresh tuples alive than CPython's free lists hold and woke
the cyclic collector on almost every execution.
Keeping rows as bare tuples lets the kernels resolve component positions
once (``_values_getter``) without building record objects between
operators.
:class:`Rows` is its materialised counterpart — a schema plus a *sequence* of
value tuples — which the kernels accept as a build side next to relations,
so the combination phase can hand them dense reference ids without wrapping
them in records.

:class:`LiveTupleTracker` is the accounting companion: breaker state
(division group tables, union dedup sets) acquires live tuples as it grows
(once per chunk) and releases them when the operator's generator is closed, so
``CombinationResult.peak_tuples`` reports the true live-tuple high-water
mark of a pipelined execution instead of the sum of materialised
intermediate sizes.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.errors import StreamError
from repro.relational.relation import Relation
from repro.types.schema import RelationSchema

__all__ = ["RowStream", "Rows", "LiveTupleTracker", "Demand", "FULL", "CHUNK_ROWS", "ramped", "next_chunk"]

#: The largest chunk a pipeline source cuts; the ramp doubles from 1 up to it.
CHUNK_ROWS = 1024


class Demand:
    """What one execution's consumer asks of its sources: the ramp, until it
    wants every row (``full``, set once and never cleared).  Each execution
    owns one (``QueryResult.demand``), so two cursors never share it."""

    __slots__ = ("full",)

    def __init__(self, full: bool = False) -> None:
        self.full = full


#: The demand of a reader that takes every row before it hands one on (the collection phase).
FULL = Demand(True)


def next_chunk(size: int, demand: Demand | None) -> int:
    """A source's next chunk size after one of ``size`` (0 before the first)."""
    return CHUNK_ROWS if demand is not None and demand.full else min(size * 2, CHUNK_ROWS) or 1


def ramped(rows: Iterable[tuple], demand: Demand | None = None) -> Iterator[list[tuple]]:
    """``rows`` cut into chunks of :func:`next_chunk` rows, ``demand`` read
    before each; closing it closes ``rows`` (a parked scan generator ends there)."""
    rows = iter(rows)
    size = 0
    try:
        while chunk := list(islice(rows, size := next_chunk(size, demand))):
            yield chunk
    finally:
        _close(rows)


def _close(iterator) -> None:
    close = getattr(iterator, "close", None)
    if close is not None:
        close()


def _flattened(chunks: Iterator[list[tuple]]) -> Iterator[tuple]:
    """The rows of ``chunks``, one at a time; closing it closes ``chunks``."""
    try:
        for chunk in chunks:
            yield from chunk
    finally:
        _close(chunks)


class LiveTupleTracker:
    """High-water accounting for tuples buffered in pipeline-breaker state.

    Streaming operators :meth:`acquire` as their internal state grows (one
    call per chunk, with the tuples newly buffered) and :meth:`release` when the state dies
    (normally from the generator's ``finally`` clause, so early pipeline
    shutdown releases too).  ``peak`` is monotone and survives releases.
    """

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def acquire(self, count: int = 1) -> None:
        self.current += count
        if self.current > self.peak:
            self.peak = self.current

    def release(self, count: int = 1) -> None:
        self.current -= count

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"LiveTupleTracker(current={self.current}, peak={self.peak})"


class Rows:
    """A schema plus a sequence of raw value tuples: a materialised operand.

    The streaming kernels take one wherever they take a build-side
    :class:`~repro.relational.relation.Relation`; ``rows`` must conform to
    ``schema`` and hold no duplicates (it stands in for a relation whose key
    covers all components).

    ``memo`` keeps what was derived from ``rows`` — a kernel's hash table or
    key set, the join-order policy's summaries — under ``(kind, columns)``,
    for as long as the operand lives.  Only finished values are stored, and
    ``rows`` must not change once the first one is: operands shared between
    executions (a combination plan's) are read-only.
    """

    __slots__ = ("schema", "rows", "name", "memo")

    def __init__(self, schema: RelationSchema, rows, name: str = "") -> None:
        self.schema = schema
        self.rows = rows
        self.name = name or schema.name
        self.memo: dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Rows({self.name!r}, {len(self.schema)} columns, {len(self.rows)} rows)"


class RowStream:
    """A schema plus a single-use stream of chunks of raw value tuples.

    Parameters
    ----------
    schema:
        The :class:`RelationSchema` every yielded tuple conforms to
        (values in declaration order, already coerced).
    rows:
        A *source*'s rows, cut into chunks as ``demand`` asks (:func:`ramped`);
        the default is the empty stream.  Operators pass ``chunks`` instead.
    label:
        Diagnostic name used by :meth:`materialize` and ``repr``.
    chunks:
        An iterator of non-empty lists of rows, handed on as it is.

    Either way the stream is consumed exactly once — through :meth:`chunks`,
    the one protocol, or row by row through ``iter()``, which flattens it; a
    second use raises :class:`~repro.errors.StreamError`.
    """

    __slots__ = ("schema", "label", "_chunks")

    def __init__(self, schema: RelationSchema, rows: Iterable[tuple] = (), label: str = "",
                 chunks: Iterator[list[tuple]] | None = None, demand: Demand | None = None) -> None:
        self.schema = schema
        self.label = label or schema.name
        self._chunks: Iterator[list[tuple]] | None = ramped(rows, demand) if chunks is None else chunks

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_relation(cls, relation: Relation) -> "RowStream":
        """Stream an existing relation's value tuples (untracked iteration)."""
        return cls(relation.schema, (record.values for record in relation), label=relation.name)

    @classmethod
    def empty(cls, schema: RelationSchema, label: str = "") -> "RowStream":
        """A stream over ``schema`` that yields nothing."""
        return cls(schema, label=label)

    # -- consumption ----------------------------------------------------------

    def chunks(self) -> Iterator[list[tuple]]:
        """The stream's chunks; the kernels' generators are handed out as they
        are, so a stream adds no frame of its own between two operators."""
        chunks = self._chunks
        if chunks is None:
            raise StreamError(
                f"row stream {self.label!r} was already consumed; streams are single-use"
            )
        self._chunks = None
        return chunks

    def __iter__(self) -> Iterator[tuple]:
        return _flattened(self.chunks())

    @property
    def consumed(self) -> bool:
        """Whether iteration has started (streams are single-use)."""
        return self._chunks is None

    def close(self) -> None:
        """Shut the pipeline down without draining it.

        Closes the underlying generator (releasing breaker state through the
        operators' ``finally`` clauses) and marks the stream consumed.
        Closing an untouched or exhausted stream is a no-op; cursors route
        their ``close()`` here.
        """
        chunks, self._chunks = self._chunks, None
        _close(chunks)

    def map_rows(self, function: Callable[[tuple], tuple], schema=None) -> "RowStream":
        """A derived stream applying ``function`` to every row, chunk for chunk."""
        mapped = ([function(row) for row in chunk] for chunk in self.chunks())
        return RowStream(schema or self.schema, label=self.label, chunks=mapped)

    def materialize(self, name: str | None = None) -> Relation:
        """The escape hatch: drain the stream into a fresh relation.

        The result schema is the stream schema, so for intermediate
        reference relations (key = all components) duplicate rows collapse
        through the relation's key dictionary.
        """
        result = Relation(name or self.label, self.schema)
        for chunk in self.chunks():
            result.insert_all(chunk)
        return result

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "consumed" if self.consumed else "pending"
        return f"RowStream({self.label!r}, {len(self.schema)} columns, {state})"
