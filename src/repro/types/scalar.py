"""PASCAL/R scalar types.

Figure 1 of the paper declares the sample database with PASCAL type
definitions: enumerations (``statustype``, ``daytype``, ``leveltype``),
subranges (``yeartype = 1900..1999``, ``enumbertype = 1..99``) and packed
character arrays (``nametype``, ``titletype``).  This module reproduces that
small type system so relation schemas can be declared the way the paper does
and so join-term comparisons are evaluated with the correct ordering (for
example ``clevel <= sophomore`` compares enumeration *ordinals*, not labels).

Every scalar type supports three operations used throughout the library:

``contains(value)``
    membership test used by validation,
``coerce(value)``
    convert a loosely-typed Python value (e.g. the string ``"professor"``)
    into the canonical representation stored inside records,
``compare(op, left, right)`` via :func:`compare_values`
    the six PASCAL comparison operators of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Any, Iterable

from repro.errors import TypeSystemError, ValidationError

__all__ = [
    "ScalarType",
    "IntegerType",
    "Subrange",
    "BooleanType",
    "CharType",
    "CharArray",
    "Enumeration",
    "EnumValue",
    "INTEGER",
    "BOOLEAN",
    "CHAR",
    "COMPARISON_OPERATORS",
    "compare_values",
    "negate_operator",
    "swap_operator",
    "sort_key",
]

#: The six comparison operators of the paper's join terms.
COMPARISON_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")

_NEGATION = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_SWAP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def negate_operator(op: str) -> str:
    """Return the operator denoting the complement of ``op``.

    Used when pushing ``NOT`` through join terms while building the negation
    normal form (Section 2 of the paper keeps formulae quantifier-prefixed and
    negation-free at the join-term level).
    """
    try:
        return _NEGATION[op]
    except KeyError:  # pragma: no cover - defensive
        raise TypeSystemError(f"unknown comparison operator: {op!r}") from None


def swap_operator(op: str) -> str:
    """Return the operator obtained by swapping the operands of ``op``.

    ``a < b`` is equivalent to ``b > a``; the collection phase uses this when
    it probes an index built on the *right* operand of a dyadic join term.
    """
    try:
        return _SWAP[op]
    except KeyError:  # pragma: no cover - defensive
        raise TypeSystemError(f"unknown comparison operator: {op!r}") from None


class ScalarType:
    """Base class of all PASCAL/R scalar types."""

    #: short human readable name, e.g. ``"1900..1999"`` or ``"statustype"``
    name: str = "scalar"

    def contains(self, value: Any) -> bool:
        """Return ``True`` when ``value`` is a legal value of this type."""
        raise NotImplementedError

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` into the canonical stored representation.

        Raises :class:`~repro.errors.ValidationError` when the value cannot
        be interpreted as a member of this type.
        """
        raise NotImplementedError

    def is_comparable_with(self, other: "ScalarType") -> bool:
        """Whether join terms may compare this type with ``other``."""
        return type(self) is type(other)

    # -- convenience -------------------------------------------------------

    def validate(self, value: Any) -> Any:
        """Coerce and return ``value`` or raise :class:`ValidationError`."""
        return self.coerce(value)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}({self.name!r})"


@dataclass(frozen=True)
class IntegerType(ScalarType):
    """Unbounded PASCAL ``integer``."""

    name: str = "integer"

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{value!r} is not an integer")
        # Normalize int subclasses (IntEnum, user types) to plain int so
        # coerced values are always hashable and compare canonically.
        return value if type(value) is int else int(value)

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, (IntegerType, Subrange))


@dataclass(frozen=True)
class Subrange(ScalarType):
    """A PASCAL subrange type such as ``1900..1999``."""

    low: int = 0
    high: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise TypeSystemError(
                f"subrange lower bound {self.low} exceeds upper bound {self.high}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.low}..{self.high}")

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self.low <= value <= self.high
        )

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{value!r} is not an integer in {self.name}")
        if not self.low <= value <= self.high:
            raise ValidationError(f"{value!r} outside subrange {self.name}")
        return value if type(value) is int else int(value)

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, (IntegerType, Subrange))


@dataclass(frozen=True)
class BooleanType(ScalarType):
    """PASCAL ``boolean``."""

    name: str = "boolean"

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)

    def coerce(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{value!r} is not a boolean")
        return value


@dataclass(frozen=True)
class CharType(ScalarType):
    """PASCAL ``char`` — a single character."""

    name: str = "char"

    def contains(self, value: Any) -> bool:
        return isinstance(value, str) and len(value) == 1

    def coerce(self, value: Any) -> str:
        if not isinstance(value, str) or len(value) != 1:
            raise ValidationError(f"{value!r} is not a single character")
        return value

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, (CharType, CharArray))


@dataclass(frozen=True)
class CharArray(ScalarType):
    """``PACKED ARRAY [1..n] OF char`` — a fixed-length string.

    PASCAL pads shorter strings with blanks; we reproduce that so equality on
    names behaves like the original system (``'Highman'`` padded to length 10
    compares equal regardless of how the literal was written).
    """

    length: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.length < 1:
            raise TypeSystemError("packed char array needs a positive length")
        if not self.name:
            object.__setattr__(self, "name", f"packed array [1..{self.length}] of char")

    def contains(self, value: Any) -> bool:
        return isinstance(value, str) and len(value) <= self.length

    def coerce(self, value: Any) -> str:
        if not isinstance(value, str):
            raise ValidationError(f"{value!r} is not a string")
        if len(value) > self.length:
            raise ValidationError(
                f"string {value!r} longer than packed array length {self.length}"
            )
        return value.ljust(self.length)

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, (CharType, CharArray))


@total_ordering
@dataclass(frozen=True)
class EnumValue:
    """A value of an :class:`Enumeration`.

    Ordered by declaration position (ordinal), exactly like PASCAL scalar
    enumerations, so the paper's ``c.clevel <= sophomore`` works as intended.
    """

    enum_name: str
    label: str
    ordinal: int

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EnumValue):
            return self.enum_name == other.enum_name and self.ordinal == other.ordinal
        if isinstance(other, str):
            return self.label == other
        return NotImplemented

    def __lt__(self, other: "EnumValue") -> bool:
        if not isinstance(other, EnumValue):
            return NotImplemented
        if self.enum_name != other.enum_name:
            raise TypeSystemError(
                f"cannot order values of {self.enum_name} against {other.enum_name}"
            )
        return self.ordinal < other.ordinal

    def __hash__(self) -> int:
        return hash((self.enum_name, self.ordinal))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{self.enum_name}.{self.label}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Enumeration(ScalarType):
    """A PASCAL scalar enumeration such as ``(freshman, sophomore, junior, senior)``."""

    name: str = "enum"
    labels: tuple[str, ...] = ()
    _by_label: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise TypeSystemError(f"enumeration {self.name!r} needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise TypeSystemError(f"enumeration {self.name!r} has duplicate labels")
        by_label = {
            label: EnumValue(self.name, label, ordinal)
            for ordinal, label in enumerate(self.labels)
        }
        object.__setattr__(self, "_by_label", by_label)

    # -- value constructors --------------------------------------------------

    def value(self, label: str) -> EnumValue:
        """Return the :class:`EnumValue` for ``label``."""
        try:
            return self._by_label[label]
        except KeyError:
            raise ValidationError(
                f"{label!r} is not a label of enumeration {self.name!r}"
            ) from None

    def __getattr__(self, label: str) -> EnumValue:
        # Attribute access sugar: ``statustype.professor``.
        if label.startswith("_"):
            raise AttributeError(label)
        try:
            return self._by_label[label]
        except KeyError:
            raise AttributeError(label) from None

    def values(self) -> Iterable[EnumValue]:
        """All values in declaration order."""
        return tuple(self._by_label[label] for label in self.labels)

    # -- ScalarType interface ------------------------------------------------

    def contains(self, value: Any) -> bool:
        if isinstance(value, EnumValue):
            return value.enum_name == self.name
        if isinstance(value, str):
            return value in self._by_label
        return False

    def coerce(self, value: Any) -> EnumValue:
        if isinstance(value, EnumValue):
            if value.enum_name != self.name:
                raise ValidationError(
                    f"value of enumeration {value.enum_name!r} used where "
                    f"{self.name!r} was expected"
                )
            return value
        if isinstance(value, str):
            return self.value(value)
        raise ValidationError(f"{value!r} is not a value of enumeration {self.name!r}")

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, Enumeration) and other.name == self.name

    def __hash__(self) -> int:
        return hash((self.name, self.labels))


#: Singleton instances for the unparameterised types.
INTEGER = IntegerType()
BOOLEAN = BooleanType()
CHAR = CharType()


def compare_values(op: str, left: Any, right: Any) -> bool:
    """Evaluate a PASCAL comparison ``left op right``.

    This is the semantics of a join term's comparison operator.  String
    operands are compared after stripping the blank padding introduced by
    :class:`CharArray` so that user-supplied literals of different lengths
    compare naturally.
    """
    if isinstance(left, str) and isinstance(right, str):
        left = left.rstrip()
        right = right.rstrip()
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise TypeSystemError(f"unknown comparison operator: {op!r}")


def sort_key(value: Any):
    """A total-order key over the scalar values one component can hold.

    Enumeration values order by their ordinal, strings by their
    blank-stripped text (matching :func:`compare_values`), numbers by
    themselves.  Sorted indexes order through this key, so an index probe
    agrees exactly with the join-term comparison semantics.
    """
    ordinal = getattr(value, "ordinal", None)
    if ordinal is not None:
        return ordinal
    if isinstance(value, str):
        return value.rstrip()
    return value
