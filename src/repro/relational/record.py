"""Relation elements (records).

A :class:`Record` is an immutable, hashable element of a relation: the
``RECORD ... END`` of the paper's declarations.  Component values are stored
in declaration order and are accessible both as attributes (``rec.ename``,
matching the paper's ``e.ename`` notation) and by subscription
(``rec["ename"]``).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any, Iterator, Mapping

from repro.errors import SchemaError
from repro.types.schema import RelationSchema

__all__ = ["Record", "values_of"]

#: ``record.values`` of many records (an iterator), without a Python frame each.
values_of = partial(map, attrgetter("_values"))


class Record:
    """An immutable element of a relation.

    Records are value objects: two records with the same schema field names
    and the same component values are equal and hash alike, which is what
    set-oriented relation semantics require.
    """

    __slots__ = ("_schema", "_values", "_hash")

    def __init__(self, schema: RelationSchema, values: Mapping[str, Any] | tuple):
        if isinstance(values, tuple):
            if len(values) != len(schema.fields):
                raise SchemaError(
                    f"record for schema {schema.name!r} expects {len(schema.fields)} "
                    f"values, got {len(values)}"
                )
            stored = tuple(
                f.type.coerce(value) for f, value in zip(schema.fields, values)
            )
        else:
            stored = schema.coerce_values(values)
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", stored)
        object.__setattr__(self, "_hash", None)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def raw(cls, schema: RelationSchema, values: tuple) -> "Record":
        """Build a record from already-coerced values (fast path: slot descriptors)."""
        record = _new(cls)
        _set_schema(record, schema)
        _set_values(record, values)
        _set_hash(record, None)
        return record

    # -- accessors -------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> tuple:
        """Component values in declaration order."""
        return self._values

    @property
    def key(self) -> tuple:
        """The key value of this record (the paper's ``keyval``)."""
        return self._schema.key_of(self._values)

    def __getitem__(self, field_name: str) -> Any:
        return self._values[self._schema.field_position(field_name)]

    def __getattr__(self, field_name: str) -> Any:
        if field_name.startswith("_"):
            raise AttributeError(field_name)
        try:
            return self._values[self._schema.field_position(field_name)]
        except SchemaError:
            raise AttributeError(field_name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("records are immutable")

    def get(self, field_name: str, default: Any = None) -> Any:
        """Component value or ``default`` when the component does not exist."""
        if self._schema.has_field(field_name):
            return self[field_name]
        return default

    def as_dict(self) -> dict[str, Any]:
        """A ``{component: value}`` dictionary copy of this record."""
        return dict(zip(self._schema.field_names, self._values))

    def replace(self, **changes: Any) -> "Record":
        """A copy of this record with some components changed."""
        data = self.as_dict()
        data.update(changes)
        return Record(self._schema, data)

    def project_values(self, field_names: tuple[str, ...]) -> tuple:
        """Values of the named components, in the order given."""
        values = self._values
        return tuple(values[p] for p in self._schema.positions_of(field_names))

    # -- value semantics ---------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self._schema.field_names == other._schema.field_names
            and self._values == other._values
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._schema.field_names, self._values))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.field_names, self._values)
        )
        return f"<{pairs}>"


_new = object.__new__
_set_schema = Record._schema.__set__
_set_values = Record._values.__set__
_set_hash = Record._hash.__set__

#: Below this many rows the per-record :meth:`Record.raw` call is cheaper
#: than setting up the maps of :func:`records_of`.
BULK_ROWS = 8


def records_of(schema: RelationSchema, rows: list[tuple]) -> list[Record]:
    """One :meth:`Record.raw` per row of already-coerced values, in order: on
    a chunk of :data:`BULK_ROWS` rows or more, one C-level ``map`` per slot."""
    count = len(rows)
    if count < BULK_ROWS:
        return [Record.raw(schema, row) for row in rows]
    records = list(map(_new, repeat(Record, count)))
    # Every setter returns None, so ``any`` runs each map to its end.
    any(map(_set_schema, records, repeat(schema, count)))
    any(map(_set_values, records, rows))
    any(map(_set_hash, records, repeat(None, count)))
    return records
