"""Exception hierarchy for the PASCAL/R reproduction library.

All library errors derive from :class:`PascalRError` so callers can catch a
single base class.  The hierarchy mirrors the major subsystems: type/schema
problems, relation manipulation problems, query-language parse problems,
calculus well-formedness problems, and engine/evaluation problems.
"""

from __future__ import annotations

__all__ = [
    "PascalRError",
    "TypeSystemError",
    "SchemaError",
    "ValidationError",
    "RelationError",
    "DuplicateKeyError",
    "MissingElementError",
    "DanglingReferenceError",
    "AlgebraError",
    "CatalogError",
    "SnapshotError",
    "StorageError",
    "RecoveryError",
    "ParseError",
    "LexError",
    "CalculusError",
    "ScopeError",
    "TypeCheckError",
    "TransformError",
    "PlanError",
    "BindingError",
    "EvaluationError",
    "StreamError",
    "TransactionError",
    "ConnectionClosedError",
    "CursorError",
]


class PascalRError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# --------------------------------------------------------------------------- types


class TypeSystemError(PascalRError):
    """A problem with a scalar type definition or type usage."""


class SchemaError(TypeSystemError):
    """A relation or record schema is ill-formed (bad key, duplicate field...)."""


class ValidationError(TypeSystemError):
    """A value does not belong to the declared type of its field."""


# ---------------------------------------------------------------------- relational


class RelationError(PascalRError):
    """Base class for errors raised while manipulating relations."""


class DuplicateKeyError(RelationError):
    """Inserting an element whose key already identifies a different element."""


class MissingElementError(RelationError, KeyError):
    """A selected variable ``rel[keyval]`` does not denote any element."""


class DanglingReferenceError(RelationError):
    """Dereferencing a ``@rel[keyval]`` reference whose element has vanished."""


class AlgebraError(RelationError):
    """A relational-algebra operation was applied to incompatible operands."""


class CatalogError(RelationError):
    """A database catalog lookup or definition failed."""


class SnapshotError(RelationError):
    """A pinned snapshot view was used as if it were the live database.

    Snapshot relations are immutable by construction (the copy-on-write rule
    depends on it); any mutation attempt raises this error.
    """


class StorageError(RelationError):
    """A problem in the durable storage layer (write-ahead log, snapshot)."""


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent database.

    Recovery degrades gracefully on damaged *logs* (torn tails, truncated
    records, bad checksums are skipped and surfaced in the
    :class:`~repro.storage.recovery.RecoveryReport`); this error is reserved
    for states recovery cannot salvage at all, such as an unreadable or
    structurally invalid checkpoint snapshot.
    """


# -------------------------------------------------------------------------- parser


class ParseError(PascalRError):
    """The textual selection expression could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LexError(ParseError):
    """The textual selection expression could not be tokenised."""


# ------------------------------------------------------------------------ calculus


class CalculusError(PascalRError):
    """A calculus expression is ill-formed."""


class ScopeError(CalculusError):
    """A variable is used outside the scope of its range expression."""


class TypeCheckError(CalculusError):
    """A join term compares incompatible component types."""


# ----------------------------------------------------------------------- transform


class TransformError(PascalRError):
    """A query transformation could not be applied."""


# -------------------------------------------------------------------------- engine


class PlanError(PascalRError):
    """An evaluation plan is ill-formed or cannot be constructed."""


class BindingError(PlanError):
    """Parameter bindings do not match a prepared query's parameters.

    Raised when executing a prepared query with missing bindings, bindings
    for parameters the query does not declare, or values outside the scalar
    type of the component the parameter is compared with.
    """


class EvaluationError(PascalRError):
    """A runtime failure while evaluating a query."""


class StreamError(EvaluationError):
    """A :class:`~repro.engine.stream.RowStream` was used after consumption.

    Row streams are single-use by design (they wrap live generators); a
    second iteration is a programming error, reported loudly instead of
    silently yielding an empty result.
    """


# ----------------------------------------------------------------------------- api


class TransactionError(PascalRError):
    """A session transaction was used out of order.

    Raised for ``begin`` while a transaction is already active on the
    database, ``commit``/``rollback`` without an active transaction, and
    mutations of transactional scope that the undo journal cannot honour.
    """


class ConnectionClosedError(PascalRError):
    """An operation was attempted on a closed connection, session or cursor.

    ``close()`` itself is idempotent (double close is a no-op); everything
    else on a closed handle raises this error.
    """


class CursorError(PascalRError):
    """A cursor was used out of protocol (e.g. a fetch before any execute)."""
