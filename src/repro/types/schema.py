"""Record and relation schemas.

The paper declares relations as

.. code-block:: pascal

    employees : RELATION <enr> OF
                RECORD
                  enr     : enumbertype;
                  ename   : nametype;
                  estatus : statustype
                END;

A :class:`RelationSchema` captures exactly that: an ordered list of named,
typed components plus the list of component identifiers forming the key
(the angular-bracket list).  Schemas are immutable and hashable so they can
be shared between a base relation, its indexes, and intermediate reference
relations derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError, ValidationError
from repro.types.scalar import ScalarType

__all__ = ["Field", "RelationSchema"]


@dataclass(frozen=True)
class Field:
    """A single component (attribute) of a relation element."""

    name: str
    type: ScalarType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid component identifier: {self.name!r}")


@dataclass(frozen=True)
class RelationSchema:
    """The schema of a PASCAL/R ``RELATION <key> OF RECORD ... END``.

    Parameters
    ----------
    name:
        Name of the relation type; purely descriptive.
    fields:
        Ordered sequence of :class:`Field` (or ``(name, type)`` pairs).
    key:
        The component identifiers forming the key.  Defaults to *all*
        components, which is the convention used for intermediate reference
        relations in the paper's Figure 2.
    """

    name: str
    fields: tuple[Field, ...]
    key: tuple[str, ...] = ()
    field_names: tuple[str, ...] = field(default=(), compare=False, repr=False)
    """Component identifiers in declaration order."""
    _field_map: dict = field(default_factory=dict, compare=False, repr=False)
    _position_map: dict = field(default_factory=dict, compare=False, repr=False)
    _key_positions: tuple = field(default=(), compare=False, repr=False)
    _key_getter: Any = field(default=None, compare=False, repr=False)

    def __init__(
        self,
        name: str,
        fields: Sequence[Field] | Sequence[tuple[str, ScalarType]] | Mapping[str, ScalarType],
        key: Sequence[str] | None = None,
    ) -> None:
        # Tuples and lists (the engine's) first: a mapping needs an ABC check.
        if not isinstance(fields, (tuple, list)) and isinstance(fields, Mapping):
            normalized = tuple(Field(fname, ftype) for fname, ftype in fields.items())
        else:
            normalized = tuple(
                f if isinstance(f, Field) else Field(f[0], f[1]) for f in fields
            )
        if not normalized:
            raise SchemaError(f"relation schema {name!r} has no components")
        names = [f.name for f in normalized]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation schema {name!r} has duplicate components")
        if key is None:
            key_tuple = tuple(names)
        else:
            key_tuple = tuple(key)
            if not key_tuple:
                raise SchemaError(f"relation schema {name!r} has an empty key")
            missing = [k for k in key_tuple if k not in names]
            if missing:
                raise SchemaError(
                    f"key components {missing} of schema {name!r} are not declared components"
                )
            if len(set(key_tuple)) != len(key_tuple):
                raise SchemaError(f"relation schema {name!r} repeats key components")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", normalized)
        object.__setattr__(self, "key", key_tuple)
        object.__setattr__(self, "field_names", tuple(names))
        object.__setattr__(self, "_field_map", {f.name: f for f in normalized})
        object.__setattr__(
            self, "_position_map", {f.name: i for i, f in enumerate(normalized)}
        )
        positions = tuple(names.index(k) for k in key_tuple)
        object.__setattr__(self, "_key_positions", positions)
        # One C call per key; key_of wraps the bare value of a single position.
        object.__setattr__(self, "_key_getter", itemgetter(*positions))

    # -- lookups -------------------------------------------------------------

    def __contains__(self, field_name: str) -> bool:
        return field_name in self._field_map

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def field_type(self, field_name: str) -> ScalarType:
        """Return the declared type of ``field_name``."""
        try:
            return self._field_map[field_name].type
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no component {field_name!r}"
            ) from None

    def has_field(self, field_name: str) -> bool:
        """Whether ``field_name`` is a component of this schema."""
        return field_name in self._field_map

    def field_position(self, field_name: str) -> int:
        """Index of ``field_name`` in declaration order."""
        try:
            return self._position_map[field_name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no component {field_name!r}"
            ) from None

    def positions_of(self, field_names: Sequence[str]) -> tuple[int, ...]:
        """Declaration-order indexes of several components at once.

        The relational algebra kernels resolve component positions once per
        operator call through this method instead of once per record.
        """
        positions = self._position_map
        try:
            return tuple(positions[name] for name in field_names)
        except KeyError as exc:
            raise SchemaError(
                f"schema {self.name!r} has no component {exc.args[0]!r}"
            ) from None

    # -- derived schemas -------------------------------------------------------

    def project(self, field_names: Sequence[str], name: str | None = None) -> "RelationSchema":
        """Schema obtained by projecting on ``field_names`` (key = all of them)."""
        missing = [f for f in field_names if f not in self._field_map]
        if missing:
            raise SchemaError(f"cannot project {self.name!r} on unknown components {missing}")
        projected = tuple(self._field_map[f] for f in field_names)
        return RelationSchema(name or f"{self.name}_projection", projected, key=None)

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "RelationSchema":
        """Schema with components renamed according to ``mapping``."""
        renamed = tuple(
            Field(mapping.get(f.name, f.name), f.type) for f in self.fields
        )
        new_key = tuple(mapping.get(k, k) for k in self.key)
        return RelationSchema(name or self.name, renamed, key=new_key)

    def concat(self, other: "RelationSchema", name: str | None = None) -> "RelationSchema":
        """Schema whose components are this schema's followed by ``other``'s.

        Used for Cartesian products and joins of reference relations; component
        name clashes raise :class:`~repro.errors.SchemaError`, callers are
        expected to rename first.
        """
        clash = set(self.field_names) & set(other.field_names)
        if clash:
            raise SchemaError(
                f"cannot concatenate schemas {self.name!r} and {other.name!r}: "
                f"components {sorted(clash)} clash"
            )
        return RelationSchema(
            name or f"{self.name}_x_{other.name}", self.fields + other.fields, key=None
        )

    # -- validation -----------------------------------------------------------

    def coerce_values(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Validate and coerce a mapping of component values into storage order.

        Missing or extra components raise :class:`~repro.errors.SchemaError`;
        ill-typed values raise :class:`~repro.errors.ValidationError`.
        """
        extra = set(values) - set(self.field_names)
        if extra:
            raise SchemaError(
                f"values for unknown components {sorted(extra)} of schema {self.name!r}"
            )
        missing = [f.name for f in self.fields if f.name not in values]
        if missing:
            raise SchemaError(
                f"missing values for components {missing} of schema {self.name!r}"
            )
        return tuple(f.type.coerce(values[f.name]) for f in self.fields)

    def key_of(self, values: Mapping[str, Any] | Sequence[Any]) -> tuple[Any, ...]:
        """Extract the key tuple from a mapping or storage-ordered sequence."""
        # Every hot path passes a record's value tuple; test for it before
        # the ABC instance check a mapping needs.
        if not isinstance(values, tuple) and isinstance(values, Mapping):
            return tuple(values[k] for k in self.key)
        key = self._key_getter(values)
        return key if len(self._key_positions) > 1 else (key,)

    def canonical_key(self, key: Sequence[Any]) -> tuple[Any, ...]:
        """``key`` with every component coerced through its declared type.

        The stored spelling of a key: elements are filed under coerced
        values (blank-padded char arrays, enumeration values rather than
        labels), so this is the form a lookup must use.  A key of the wrong
        arity or with an ill-typed component raises
        :class:`~repro.errors.ValidationError`.
        """
        if len(key) != len(self._key_positions):
            raise ValidationError(
                f"key {tuple(key)!r} does not have the {len(self.key)} "
                f"component(s) <{', '.join(self.key)}> of schema {self.name!r}"
            )
        fields = self.fields
        return tuple(
            fields[position].type.coerce(value)
            for position, value in zip(self._key_positions, key)
        )

    def keys_of(self, rows: Sequence[tuple]) -> list[tuple]:
        """Key tuples of many storage-ordered value tuples (:meth:`key_of` in bulk)."""
        positions = self._key_positions
        if len(positions) == 1:
            (position,) = positions
            return [(row[position],) for row in rows]
        return list(map(itemgetter(*positions), rows))

    def describe(self) -> str:
        """A PASCAL/R-flavoured, human readable rendering of the schema."""
        lines = [f"RELATION <{', '.join(self.key)}> OF RECORD"]
        for f in self.fields:
            lines.append(f"    {f.name} : {f.type.name};")
        lines.append("END")
        return "\n".join(lines)
