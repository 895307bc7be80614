"""References to selected variables.

Section 3.1 of the paper introduces two language tools:

* the *selected variable* ``rel[keyval]`` — an element of relation ``rel``
  addressed by its key value, and
* the *reference* ``@rel[keyval]`` — a storable value denoting that selected
  variable, from which the element can be regained by dereferencing
  (postfix ``@`` in PASCAL/R, :meth:`Ref.deref` here).

References generalise the tuple identifiers (TIDs) of other systems; the
paper's collection/combination machinery manipulates relations whose
components are references.  The engine goes one step further and computes
on dense int ids standing for them: the collection phase interns element
keys as it reads them, and the construction phase decodes ids to keys.  A
:class:`Ref` is the language's value — ``@rel[keyval]``, a stored
reference: small, immutable and hashable, just
``(relation, keyval)`` — and dereferencing goes back through the relation
so that a reference observes updates and detects deleted elements (a
*dangling* reference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import DanglingReferenceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.record import Record
    from repro.relational.relation import Relation

__all__ = ["Ref"]


class Ref:
    """A reference ``@rel[keyval]`` to an element of a relation."""

    __slots__ = ("_relation", "_key", "_hash")

    def __init__(self, relation: "Relation", key: tuple):
        self._relation = relation
        self._key = key if isinstance(key, tuple) else (key,)
        self._hash: int | None = None

    # -- accessors -------------------------------------------------------------

    @property
    def relation(self) -> "Relation":
        """The relation the referenced element belongs to."""
        return self._relation

    @property
    def key(self) -> tuple:
        """The key value identifying the referenced element."""
        return self._key

    def deref(self) -> "Record":
        """Return the referenced element (the paper's postfix ``@``).

        Raises :class:`~repro.errors.DanglingReferenceError` when the element
        has been deleted since the reference was created.
        """
        record = self._relation.find(self._key)
        if record is None:
            raise DanglingReferenceError(
                f"@{self._relation.name}[{self._key}] no longer denotes an element"
            )
        return record

    def exists(self) -> bool:
        """Whether the referenced element is still present in the relation."""
        return self._relation.find(self._key) is not None

    def component(self, field_name: str) -> Any:
        """Shorthand for ``self.deref()[field_name]``."""
        return self.deref()[field_name]

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Ref):
            return NotImplemented
        return self._key == other._key and self._relation.name == other._relation.name

    def __hash__(self) -> int:
        # By relation *name*, matching ``ReferenceType``'s name-based checking:
        # refs built against different objects over the same relation (a
        # rebuilt benchmark relation, a pinned snapshot view) compare and hash
        # as the same value.  Computed once, on first use: a stored reference
        # is hashed on every set/dict operation over it (tuples do not cache
        # the hashes of their components), while one made only to be
        # dereferenced is never hashed at all.
        value = self._hash
        if value is None:
            value = self._hash = hash((self._relation.name, self._key))
        return value

    def __repr__(self) -> str:
        return f"@{self._relation.name}{list(self._key)!r}"
