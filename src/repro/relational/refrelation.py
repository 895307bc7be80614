"""Reference-typed components: the ``@rel`` type of Figure 2.

The paper stores every intermediate result as an ordinary PASCAL/R relation
whose components are *references* (Section 3.2): single lists, indirect
joins, indexes and the combination phase's n-tuples.  The collection phase
builds the first three as :class:`~repro.engine.collection.ConjunctStructure`
reference sets; the combination phase's streams carry one reference
component per variable, typed :class:`ReferenceType` and named by
:func:`ref_field_name`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ValidationError
from repro.relational.reference import Ref
from repro.types.scalar import ScalarType

__all__ = ["ReferenceType", "ref_field_name"]


@dataclass(frozen=True)
class ReferenceType(ScalarType):
    """The component type ``@rel`` — a reference into ``rel``.

    The target is identified by relation *name* only; a reference value built
    against any relation of that name is accepted.  (The paper's type system
    is stricter, but intermediate relations in this library are frequently
    rebuilt against fresh relation objects during benchmarking, and name-based
    checking keeps reference values interchangeable across those rebuilds.)
    """

    target: str = ""
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"@{self.target}" if self.target else "@")

    def contains(self, value: Any) -> bool:
        if not isinstance(value, Ref):
            return False
        return not self.target or value.relation.name == self.target

    def coerce(self, value: Any) -> Ref:
        if not isinstance(value, Ref):
            raise ValidationError(f"{value!r} is not a reference")
        if self.target and value.relation.name != self.target:
            raise ValidationError(
                f"reference into {value.relation.name!r} used where @{self.target} expected"
            )
        return value

    def is_comparable_with(self, other: ScalarType) -> bool:
        return isinstance(other, ReferenceType) and (
            not self.target or not other.target or self.target == other.target
        )


def ref_field_name(variable: str) -> str:
    """The component name used for variable ``variable``'s reference column.

    The paper names them ``eref``, ``pref``, ``cref``, ``tref``; we generalise
    to ``<variable>_ref`` so arbitrary variable names work.
    """
    return f"{variable}_ref"
