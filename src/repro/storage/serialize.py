"""Codecs between scalar values / schemas and JSON-safe structures.

The write-ahead log and the checkpoint snapshot both persist relation
contents to disk, so they need a stable wire form for the PASCAL/R scalar
values stored inside records.  The encoding is deliberately *type-directed*:
values are flattened to plain JSON scalars (an :class:`EnumValue` becomes its
label string, padded ``CharArray`` strings keep their padding), and decoding
runs the values back through the declared field types' ``coerce`` — exactly
the validation path a fresh insert takes — so a decoded record is
indistinguishable from one built by the original mutation.

Schemas themselves are persisted structurally (field names, type
descriptors, key components) so ``Database.open`` can rebuild the catalog
without any Python-level pickling.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import RecoveryError
from repro.types.scalar import (
    BOOLEAN,
    CHAR,
    INTEGER,
    CharArray,
    EnumValue,
    Enumeration,
    ScalarType,
    Subrange,
)
from repro.types.schema import Field, RelationSchema

__all__ = [
    "encode_value",
    "encode_row",
    "decode_row",
    "decode_key",
    "encode_type",
    "decode_type",
    "encode_schema",
    "decode_schema",
]


# -- values ---------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Flatten one coerced scalar value to a JSON-safe scalar.

    Enumeration values carry their label; everything else the type system
    stores (``int``, ``bool``, padded ``str``) is already JSON-safe.  The
    write-ahead log passes this as ``json.dumps``'s ``default`` hook, so a
    redo op's value tuple is written without an encoded copy.
    """
    if isinstance(value, EnumValue):
        return value.label
    return value


def encode_row(values: Sequence[Any]) -> list:
    """Flatten a record's value tuple (declaration order) for the wire."""
    return [encode_value(value) for value in values]


def decode_row(schema: RelationSchema, row: Sequence[Any]) -> tuple:
    """Coerce a wire row back into a stored value tuple via the field types."""
    if len(row) != len(schema.fields):
        raise RecoveryError(
            f"row for schema {schema.name!r} expects {len(schema.fields)} "
            f"values, got {len(row)}"
        )
    return tuple(f.type.coerce(value) for f, value in zip(schema.fields, row))


def decode_key(schema: RelationSchema, key: Sequence[Any]) -> tuple:
    """Coerce a wire key back into the relation's stored key tuple."""
    if len(key) != len(schema.key):
        raise RecoveryError(
            f"key for schema {schema.name!r} expects {len(schema.key)} "
            f"values, got {len(key)}"
        )
    return tuple(
        schema.field_type(name).coerce(value) for name, value in zip(schema.key, key)
    )


# -- scalar types ----------------------------------------------------------------


def encode_type(scalar: ScalarType) -> dict:
    """A structural JSON descriptor of one scalar type."""
    if isinstance(scalar, Subrange):
        return {"kind": "subrange", "low": scalar.low, "high": scalar.high,
                "name": scalar.name}
    if isinstance(scalar, Enumeration):
        return {"kind": "enum", "name": scalar.name, "labels": list(scalar.labels)}
    if isinstance(scalar, CharArray):
        return {"kind": "chararray", "length": scalar.length, "name": scalar.name}
    type_name = type(scalar).__name__
    if type_name == "IntegerType":
        return {"kind": "integer"}
    if type_name == "BooleanType":
        return {"kind": "boolean"}
    if type_name == "CharType":
        return {"kind": "char"}
    raise RecoveryError(f"cannot persist scalar type {scalar!r}")


def decode_type(descriptor: dict) -> ScalarType:
    """Rebuild a scalar type from its structural descriptor."""
    try:
        kind = descriptor["kind"]
        if kind == "integer":
            return INTEGER
        if kind == "boolean":
            return BOOLEAN
        if kind == "char":
            return CHAR
        if kind == "subrange":
            return Subrange(descriptor["low"], descriptor["high"], descriptor["name"])
        if kind == "enum":
            return Enumeration(descriptor["name"], tuple(descriptor["labels"]))
        if kind == "chararray":
            return CharArray(descriptor["length"], descriptor["name"])
    except (KeyError, TypeError) as exc:
        raise RecoveryError(f"malformed scalar type descriptor {descriptor!r}") from exc
    raise RecoveryError(f"unknown scalar type kind {kind!r}")


# -- schemas ---------------------------------------------------------------------


def encode_schema(schema: RelationSchema) -> dict:
    """A structural JSON descriptor of a relation schema."""
    return {
        "name": schema.name,
        "fields": [[f.name, encode_type(f.type)] for f in schema.fields],
        "key": list(schema.key),
    }


def decode_schema(descriptor: dict) -> RelationSchema:
    """Rebuild a relation schema from its structural descriptor."""
    try:
        fields = tuple(
            Field(name, decode_type(type_descriptor))
            for name, type_descriptor in descriptor["fields"]
        )
        return RelationSchema(descriptor["name"], fields, key=descriptor["key"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"malformed schema descriptor") from exc
