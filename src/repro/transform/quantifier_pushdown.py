"""Strategy 4 — evaluating quantifiers in the collection phase (Section 4.4).

The bottleneck of the phase-structured algorithm is the combination phase,
where intermediate reference relations are combined into large n-tuple
relations "in most cases just to be reduced again".  Strategy 4 breaks the
strict phase structure by moving the right-most quantifier into the matrix and
evaluating it while the relations are being read:

* the quantifier of ``vn`` can move when ``vn`` is existentially quantified
  (each conjunction is treated separately) or when ``vn`` is universally
  quantified and occurs in no more than one conjunction (Lemma 1);
* the technique applies when the quantified sub-formula involves only one
  additional variable ``vm`` — dyadic join terms between ``vn`` and ``vm``
  plus monadic terms over ``vn`` — which can often be arranged by swapping
  quantifiers (equal quantifiers always commute);
* when ``vnrel`` is read, only a **value list** is generated; when ``vmrel``
  is read the quantifier is decided per element, like a monadic join term.
  The value list degenerates to a single number for ``<``/``<=``/``>``/``>=``
  (maximum for SOME, minimum for ALL) and to at most one value for ``ALL``
  with ``=`` and ``SOME`` with ``<>``.

The planner below is purely static: it rewrites the quantifier prefix and the
matrix conjunctions, replacing the sub-formula over ``vn`` with a
:class:`DerivedPredicate` on ``vm`` that the collection phase of the engine
evaluates with :class:`~repro.relational.index.ValueList`.  Applied
repeatedly it reproduces Example 4.7, where the entire quantifier prefix of
the running query dissolves into three collection-phase sets
(``cset``, ``tset``, ``pset``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calculus.analysis import QuantifierSpec, range_relations
from repro.calculus.ast import (
    ALL,
    And,
    BoolConst,
    Comparison,
    Formula,
    RangeExpr,
    SOME,
    hash_once,
)
from repro.errors import TransformError

__all__ = [
    "DerivedPredicate",
    "PushdownStep",
    "PushdownResult",
    "Literal",
    "conjunction_literals",
    "plan_pushdowns",
]


@hash_once
@dataclass(frozen=True)
class DerivedPredicate:
    """A quantified sub-formula turned into a collection-phase test on ``outer_var``.

    Semantics, for an element ``r`` bound to ``outer_var``::

        quantifier == SOME:
            there is an element s of inner_range (satisfying every
            inner_monadic and inner_derived constraint) such that every
            connecting comparison holds between r and s.
        quantifier == ALL:
            every element s of inner_range satisfies every inner_monadic and
            inner_derived constraint and every connecting comparison with r.
    """

    outer_var: str
    quantifier: str
    inner_var: str
    inner_range: RangeExpr
    connecting: tuple[Comparison, ...]
    inner_monadic: tuple[Comparison, ...] = ()
    inner_derived: tuple["DerivedPredicate", ...] = ()

    def variables(self) -> tuple[str, ...]:
        """The single outer variable this predicate constrains."""
        return (self.outer_var,)

    def mentions(self, var: str) -> bool:
        return var == self.outer_var

    def relations_read(self) -> tuple[str, ...]:
        """Every relation deciding this predicate reads: the inner range's (and
        any its restriction quantifies over), then the inner pushdowns' —
        what a memoized value list is versioned by."""
        names = range_relations(self.inner_range)
        for inner in self.inner_derived:
            names += inner.relations_read()
        return tuple(dict.fromkeys(names))

    def shortcut(self) -> str | None:
        """Which Section 4.4 value-list shortcut applies, if any."""
        if len(self.connecting) != 1:
            return None
        op = self._inner_operator(self.connecting[0])
        if op in ("<", "<=", ">", ">="):
            return "minmax"
        if (self.quantifier == ALL and op == "=") or (self.quantifier == SOME and op == "<>"):
            return "single-value"
        return None

    def _inner_operator(self, comparison: Comparison) -> str:
        """The comparison operator as seen from the outer variable's side."""
        from repro.types.scalar import swap_operator

        left = comparison.left
        if hasattr(left, "var") and left.var == self.outer_var:
            return comparison.op
        return swap_operator(comparison.op)

    def describe(self) -> str:
        connecting = " AND ".join(repr(c) for c in self.connecting)
        return (
            f"{self.quantifier} {self.inner_var} IN {self.inner_range!r} "
            f"[collection phase] ({connecting})"
        )

    def __repr__(self) -> str:
        return f"<derived {self.describe()}>"


#: A literal of a prepared conjunction.
Literal = "Comparison | DerivedPredicate | BoolConst"


@dataclass(frozen=True)
class PushdownStep:
    """One applied pushdown, recorded for EXPLAIN output and the benchmarks."""

    predicate: DerivedPredicate
    conjunction_index: int
    swapped: bool
    shortcut: str | None


@dataclass
class PushdownResult:
    """The rewritten prefix and matrix conjunctions after Strategy 4."""

    prefix: tuple[QuantifierSpec, ...]
    conjunctions: tuple[tuple[object, ...], ...]
    steps: tuple[PushdownStep, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.steps)


def conjunction_literals(conjunction: Formula) -> tuple[object, ...]:
    """The literals of one DNF conjunction."""
    if isinstance(conjunction, And):
        return conjunction.operands
    return (conjunction,)


def _literal_variables(literal: object) -> tuple[str, ...]:
    if isinstance(literal, Comparison):
        return literal.variables()
    if isinstance(literal, DerivedPredicate):
        return literal.variables()
    if isinstance(literal, BoolConst):
        return ()
    raise TransformError(f"unknown literal {literal!r}")


def plan_pushdowns(
    prefix: tuple[QuantifierSpec, ...],
    conjunctions: tuple[tuple[object, ...], ...],
) -> PushdownResult:
    """Apply Strategy 4 repeatedly and return the rewritten query structure.

    At every iteration the candidate variables are those in the innermost
    maximal block of equal quantifiers (equal quantifiers may be swapped).  A
    candidate is pushed when every conjunction in which it occurs connects it
    to at most one other variable through its dyadic terms, and — for a
    universal variable — it occurs in at most one conjunction.
    """
    prefix = tuple(prefix)
    conjunctions = tuple(tuple(c) for c in conjunctions)
    steps: list[PushdownStep] = []

    while prefix:
        applied = False
        innermost_kind = prefix[-1].kind
        # The innermost block of equal quantifiers, innermost first.
        block: list[int] = []
        for index in range(len(prefix) - 1, -1, -1):
            if prefix[index].kind != innermost_kind:
                break
            block.append(index)
        for position_in_prefix in block:
            spec = prefix[position_in_prefix]
            plan = _plan_variable(spec, conjunctions)
            if plan is None:
                continue
            new_conjunctions, new_steps = plan
            swapped = position_in_prefix != len(prefix) - 1
            steps.extend(
                PushdownStep(step.predicate, step.conjunction_index, swapped, step.shortcut)
                for step in new_steps
            )
            conjunctions = new_conjunctions
            prefix = prefix[:position_in_prefix] + prefix[position_in_prefix + 1:]
            applied = True
            break
        if not applied:
            break

    return PushdownResult(prefix, conjunctions, tuple(steps))


def _plan_variable(
    spec: QuantifierSpec,
    conjunctions: tuple[tuple[object, ...], ...],
) -> tuple[tuple[tuple[object, ...], ...], list[PushdownStep]] | None:
    """Try to push quantifier ``spec`` into the collection phase.

    Returns the rewritten conjunctions and the steps, or ``None`` when the
    variable does not qualify.
    """
    var = spec.var
    occurrences = [
        index
        for index, conjunction in enumerate(conjunctions)
        if any(var in _literal_variables(lit) for lit in conjunction)
    ]
    if not occurrences:
        # The variable occurs nowhere.  Over a (non-empty) base range the
        # quantifier is redundant and can simply be dropped; over an extended
        # range it must stay in the prefix so the collection phase still
        # checks the range for emptiness (and triggers the Strategy 3
        # fallback when the non-empty assumption fails).
        if spec.range.restriction is None:
            return conjunctions, []
        return None
    if spec.kind == ALL and len(occurrences) > 1:
        return None

    replacements: dict[int, tuple[object, ...]] = {}
    steps: list[PushdownStep] = []
    for index in occurrences:
        conjunction = conjunctions[index]
        with_var = [lit for lit in conjunction if var in _literal_variables(lit)]
        without_var = [lit for lit in conjunction if var not in _literal_variables(lit)]
        connecting: list[Comparison] = []
        inner_monadic: list[Comparison] = []
        inner_derived: list[DerivedPredicate] = []
        other_vars: set[str] = set()
        for literal in with_var:
            if isinstance(literal, Comparison):
                if literal.is_dyadic():
                    connecting.append(literal)
                    other = [v for v in literal.variables() if v != var]
                    other_vars.update(other)
                else:
                    inner_monadic.append(literal)
            elif isinstance(literal, DerivedPredicate):
                inner_derived.append(literal)
            else:
                return None
        if len(other_vars) != 1 or not connecting:
            return None
        outer_var = next(iter(other_vars))
        predicate = DerivedPredicate(
            outer_var=outer_var,
            quantifier=spec.kind,
            inner_var=var,
            inner_range=spec.range,
            connecting=tuple(connecting),
            inner_monadic=tuple(inner_monadic),
            inner_derived=tuple(inner_derived),
        )
        replacements[index] = tuple(without_var) + (predicate,)
        steps.append(PushdownStep(predicate, index, False, predicate.shortcut()))

    rewritten = tuple(
        replacements.get(index, conjunction) for index, conjunction in enumerate(conjunctions)
    )
    return rewritten, steps
