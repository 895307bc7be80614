"""Abstract syntax of PASCAL/R selection expressions.

Section 2 of the paper defines the query language: a *selection*

.. code-block:: text

    [<e.ename> OF EACH e IN employees: <selection expression>]

consists of a **component selection** (the projected components) and a
**selection expression**, a well-formed formula of an applied many-sorted
first-order predicate calculus whose atomic formulae are **join terms**:
monadic (``e.estatus = professor``) or dyadic (``e.enr = t.tenr``)
comparisons under the operators ``=, <>, <, <=, >, >=``.  Element variables
are coupled to ranges in **range expressions** (``e IN employees``) and can
be free (``EACH``), existentially quantified (``SOME``) or universally
quantified (``ALL``).

The classes here model exactly those constructs, as immutable, hashable
dataclasses (the ones the engine keys catalogues on hash once: :func:`hash_once`).
The optimization strategies of Section 4 are pure functions from formulae to
formulae over this AST (:mod:`repro.transform`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Union

from repro.errors import CalculusError

__all__ = [
    "SOME",
    "ALL",
    "Const",
    "Param",
    "FieldRef",
    "Operand",
    "Formula",
    "BoolConst",
    "TRUE",
    "FALSE",
    "Comparison",
    "Not",
    "And",
    "Or",
    "Quantified",
    "RangeExpr",
    "VariableBinding",
    "OutputColumn",
    "Selection",
    "hash_once",
]

#: Quantifier kinds.
SOME = "SOME"
ALL = "ALL"


def hash_once(cls):
    """``cls``, a frozen dataclass, hashing each object's fields once: the value
    sits in the object's dict outside the fields, so ``==`` and ``repr`` never
    see it, and pickles and copies leave it out (a ``str`` hash is salted per
    process)."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = field_hash(self)
        return value

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


# ------------------------------------------------------------------------ operands


@hash_once
@dataclass(frozen=True)
class Const:
    """A literal constant operand of a join term (e.g. ``professor``, ``1977``)."""

    value: Any

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Param:
    """A named query parameter ``$name`` standing in for a constant operand.

    Parameters make one query text cover a family of workloads: the compile
    side (parsing, type checking, the Section 2-3 transformations) runs once
    on the parameterized form, and each execution substitutes concrete
    constants via :func:`repro.service.bind_selection` /
    :func:`repro.service.bind_plan`.  Type resolution records the scalar type
    of the component the parameter is compared with in ``type`` (excluded
    from equality, so resolved and unresolved occurrences of ``$name``
    compare equal), and binding coerces the supplied value through it —
    enumeration labels, subrange bounds and padded char-arrays behave exactly
    as literal constants would.
    """

    name: str
    type: Any = field(default=None, compare=False)

    def with_type(self, scalar_type: Any) -> "Param":
        """A copy of this parameter annotated with its resolved scalar type."""
        return Param(self.name, scalar_type)

    def __repr__(self) -> str:
        return f"${self.name}"


@hash_once
@dataclass(frozen=True)
class FieldRef:
    """A component access ``variable.component`` (e.g. ``e.ename``)."""

    var: str
    field: str

    def __repr__(self) -> str:
        return f"{self.var}.{self.field}"


#: An operand of a comparison.
Operand = Union[Const, Param, FieldRef]


# ------------------------------------------------------------------------ formulae


class Formula:
    """Base class of all selection-expression formulae."""

    def children(self) -> tuple["Formula", ...]:
        """Immediate sub-formulae."""
        return ()

    def walk(self) -> Iterator["Formula"]:
        """Depth-first pre-order traversal of this formula tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class BoolConst(Formula):
    """The boolean constants TRUE and FALSE.

    They arise from the Lemma 1 runtime adaptation (an existential quantifier
    over an empty range becomes FALSE, a universal one becomes TRUE) and are
    subsequently removed by simplification.
    """

    value: bool

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: Shared singletons for the two boolean constants.
TRUE = BoolConst(True)
FALSE = BoolConst(False)


@hash_once
@dataclass(frozen=True)
class Comparison(Formula):
    """A join term: ``left op right`` with ``op`` one of ``=, <>, <, <=, >, >=``.

    A join term is *monadic* when it mentions exactly one element variable
    (the other operand is a constant) and *dyadic* when it compares components
    of two different variables.
    """

    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in ("=", "<>", "<", "<=", ">", ">="):
            raise CalculusError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> tuple[str, ...]:
        """The element variables mentioned, in operand order, without duplicates."""
        names = []
        for operand in (self.left, self.right):
            if isinstance(operand, FieldRef) and operand.var not in names:
                names.append(operand.var)
        return tuple(names)

    def is_monadic(self) -> bool:
        """Exactly one element variable (the paper's *monadic join term*)."""
        return len(self.variables()) == 1

    def is_dyadic(self) -> bool:
        """Exactly two element variables (the paper's *dyadic join term*)."""
        return len(self.variables()) == 2

    def mentions(self, var: str) -> bool:
        return var in self.variables()

    def operand_for(self, var: str) -> FieldRef:
        """The operand referring to ``var`` (raises when ``var`` is not mentioned)."""
        for operand in (self.left, self.right):
            if isinstance(operand, FieldRef) and operand.var == var:
                return operand
        raise CalculusError(f"join term {self!r} does not mention variable {var!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    child: Formula

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"NOT {self.child!r}"


def _flatten(kind: type, operands: tuple[Formula, ...]) -> tuple[Formula, ...]:
    """Flatten nested And/Or nodes of the same kind into one operand list."""
    flat: list[Formula] = []
    for operand in operands:
        if isinstance(operand, kind):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    return tuple(flat)


@hash_once
@dataclass(frozen=True)
class And(Formula):
    """N-ary conjunction.  Nested conjunctions are flattened on construction."""

    operands: tuple[Formula, ...]

    def __init__(self, *operands: Formula) -> None:
        if len(operands) == 1 and isinstance(operands[0], (tuple, list)):
            operands = tuple(operands[0])
        if len(operands) < 1:
            raise CalculusError("AND needs at least one operand")
        object.__setattr__(self, "operands", _flatten(And, tuple(operands)))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """N-ary disjunction.  Nested disjunctions are flattened on construction."""

    operands: tuple[Formula, ...]

    def __init__(self, *operands: Formula) -> None:
        if len(operands) == 1 and isinstance(operands[0], (tuple, list)):
            operands = tuple(operands[0])
        if len(operands) < 1:
            raise CalculusError("OR needs at least one operand")
        object.__setattr__(self, "operands", _flatten(Or, tuple(operands)))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(o) for o in self.operands) + ")"


@hash_once
@dataclass(frozen=True)
class RangeExpr:
    """A range expression: the relation an element variable ranges over.

    ``relation`` names a database relation.  ``restriction`` — when present —
    is the *extended range expression* of Strategy 3 (Section 4.3): a formula
    over the bound variable itself, so the range denotes
    ``[EACH r IN relation: restriction]`` instead of the full relation.
    """

    relation: str
    restriction: Formula | None = None

    def is_extended(self) -> bool:
        """Whether this is an extended range expression (Strategy 3)."""
        return self.restriction is not None

    def extend(self, extra: Formula) -> "RangeExpr":
        """Range further restricted by ``extra`` (conjoined with any existing restriction)."""
        if self.restriction is None:
            return RangeExpr(self.relation, extra)
        return RangeExpr(self.relation, And(self.restriction, extra))

    def __repr__(self) -> str:
        if self.restriction is None:
            return self.relation
        return f"[EACH . IN {self.relation}: {self.restriction!r}]"


@dataclass(frozen=True)
class Quantified(Formula):
    """A quantified sub-formula ``SOME v IN range (body)`` or ``ALL v IN range (body)``."""

    kind: str
    var: str
    range: RangeExpr
    body: Formula

    def __post_init__(self) -> None:
        if self.kind not in (SOME, ALL):
            raise CalculusError(f"unknown quantifier kind {self.kind!r}")

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def is_existential(self) -> bool:
        return self.kind == SOME

    def is_universal(self) -> bool:
        return self.kind == ALL

    def __repr__(self) -> str:
        return f"{self.kind} {self.var} IN {self.range!r} ({self.body!r})"


# ------------------------------------------------------------------------ selections


@dataclass(frozen=True)
class VariableBinding:
    """A free-variable binding ``EACH var IN range`` of the component selection."""

    var: str
    range: RangeExpr

    def __repr__(self) -> str:
        return f"EACH {self.var} IN {self.range!r}"


@dataclass(frozen=True)
class OutputColumn:
    """One projected component ``var.field`` of the component selection."""

    var: str
    field: str
    alias: str | None = None

    @property
    def name(self) -> str:
        """The output component name (alias or the source component name)."""
        return self.alias or self.field

    def __repr__(self) -> str:
        rendered = f"{self.var}.{self.field}"
        if self.alias:
            rendered += f" AS {self.alias}"
        return rendered


@dataclass(frozen=True)
class Selection:
    """A complete PASCAL/R selection: projection, free variables, and formula.

    ``[<columns> OF EACH v1 IN r1, EACH v2 IN r2, ...: formula]``
    """

    columns: tuple[OutputColumn, ...]
    bindings: tuple[VariableBinding, ...]
    formula: Formula

    def __init__(
        self,
        columns,
        bindings,
        formula: Formula,
    ) -> None:
        normalized_columns = tuple(
            c if isinstance(c, OutputColumn) else OutputColumn(*c) for c in columns
        )
        normalized_bindings = []
        for binding in bindings:
            if isinstance(binding, VariableBinding):
                normalized_bindings.append(binding)
            else:
                var, range_expr = binding
                if isinstance(range_expr, str):
                    range_expr = RangeExpr(range_expr)
                normalized_bindings.append(VariableBinding(var, range_expr))
        if not normalized_columns:
            raise CalculusError("a selection needs at least one output component")
        if not normalized_bindings:
            raise CalculusError("a selection needs at least one free variable")
        bound = {b.var for b in normalized_bindings}
        if len(bound) != len(normalized_bindings):
            raise CalculusError("duplicate free variable in selection")
        for column in normalized_columns:
            if column.var not in bound:
                raise CalculusError(
                    f"projected component {column!r} uses a variable that is not free"
                )
        object.__setattr__(self, "columns", normalized_columns)
        object.__setattr__(self, "bindings", normalized_bindings := tuple(normalized_bindings))
        object.__setattr__(self, "formula", formula)

    @property
    def free_variables(self) -> tuple[str, ...]:
        """Names of the free (``EACH``) variables, in declaration order."""
        return tuple(b.var for b in self.bindings)

    def binding_for(self, var: str) -> VariableBinding:
        """The binding of free variable ``var``."""
        for binding in self.bindings:
            if binding.var == var:
                return binding
        raise CalculusError(f"selection has no free variable {var!r}")

    def with_formula(self, formula: Formula) -> "Selection":
        """A copy of this selection with a different selection expression."""
        return Selection(self.columns, self.bindings, formula)

    def with_bindings(self, bindings) -> "Selection":
        """A copy of this selection with different free-variable bindings."""
        return Selection(self.columns, bindings, self.formula)

    def __repr__(self) -> str:
        columns = ", ".join(repr(c) for c in self.columns)
        bindings = ", ".join(repr(b) for b in self.bindings)
        return f"[<{columns}> OF {bindings}: {self.formula!r}]"
