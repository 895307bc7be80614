"""The query transformation pipeline.

This module glues the individual transformations together in the order the
PASCAL/R compiler and runtime apply them:

1. scope/type resolution against the database catalog,
2. runtime adaptation for empty range relations (Lemma 1),
3. standard form: prenex normal form with a DNF matrix,
4. Strategy 3 — extended range expressions,
5. Strategy 4 — collection-phase quantifier evaluation (with quantifier
   swapping inside blocks of equal quantifiers),

and records every step in a :class:`TransformationTrace` so EXPLAIN output,
the examples, and the experiment scripts can show exactly what happened to a
query — the reproduction of the paper's Examples 2.2, 4.5 and 4.7.

The result is a :class:`QueryPlan`: free-variable bindings with their
(possibly extended) ranges, the remaining quantifier prefix, and the matrix as
a tuple of conjunctions whose literals are join terms or
:class:`~repro.transform.quantifier_pushdown.DerivedPredicate` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.calculus.analysis import QuantifierSpec
from repro.calculus.ast import (
    BoolConst,
    Comparison,
    FALSE,
    Formula,
    RangeExpr,
    Selection,
    TRUE,
    VariableBinding,
)
from repro.calculus.printer import format_formula, format_selection
from repro.calculus.typecheck import TypeChecker
from repro.config import StrategyOptions
from repro.errors import TransformError
from repro.transform.emptyrel import adapt_selection
from repro.transform.normalform import StandardForm, to_standard_form
from repro.transform.quantifier_pushdown import (
    DerivedPredicate,
    PushdownResult,
    conjunction_literals,
    plan_pushdowns,
)
from repro.transform.range_extension import extend_ranges

__all__ = ["QueryPlan", "TransformationTrace", "TraceStep", "prepare_query"]


@dataclass(frozen=True)
class TraceStep:
    """One recorded transformation step."""

    name: str
    detail: str

    def __repr__(self) -> str:
        return f"{self.name}: {self.detail}"


@dataclass
class TransformationTrace:
    """The ordered list of transformation steps applied to a query."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(self, name: str, detail: str) -> None:
        self.steps.append(TraceStep(name, detail))

    def describe(self) -> str:
        return "\n".join(f"- {step.name}: {step.detail}" for step in self.steps)

    def names(self) -> list[str]:
        return [step.name for step in self.steps]


@dataclass
class QueryPlan:
    """A query after all logic-level transformations, ready for the engine.

    Attributes
    ----------
    selection:
        The resolved original selection (for the naive evaluator, explain and
        the Strategy 3 fallback); a late-bound plan derives it on first read
        from ``derive_selection`` (:func:`~repro.service.binding.bind_plan`).
    bindings:
        Free-variable bindings, with ranges possibly extended by Strategy 3.
    prefix:
        The remaining quantifier prefix (outermost first).
    conjunctions:
        The DNF matrix as a tuple of conjunctions; each conjunction is a tuple
        of literals (join terms, boolean constants or derived predicates).
    options:
        The strategies that produced this prepared query.
    trace:
        The transformation trace.
    constant:
        When the matrix collapsed to a boolean constant this holds it
        (``True``/``False``); ``None`` otherwise.
    result_schema:
        ``[schema_version, schema]`` of the result relation, filled by the
        engine; bound copies share the cell, so it is derived once per plan.
    selection_plan:
        ``[(token, access decisions, (projection, key covered))]`` — or
        ``[None]`` — of a constant TRUE matrix: one cell, filled by the engine
        from the pins every execution reads, and shared like ``result_schema``.
    combination_schemas:
        The combination phase's id-relation schemas, by name and variables:
        built once for the shape and shared, like ``result_schema``.
    shape:
        The selection as compiled, parameters and all, shared by every binding:
        the result schema and the construction phase read it (default ``selection``).
    """

    selection: Selection
    bindings: tuple[VariableBinding, ...]
    prefix: tuple[QuantifierSpec, ...]
    conjunctions: tuple[tuple[object, ...], ...]
    options: StrategyOptions
    trace: TransformationTrace
    constant: bool | None = None
    result_schema: list = field(default_factory=lambda: [None, None], repr=False, compare=False)
    selection_plan: list = field(default_factory=lambda: [None], repr=False, compare=False)
    combination_schemas: dict = field(default_factory=dict, repr=False, compare=False)
    derive_selection: Callable | None = field(default=None, repr=False, compare=False)
    shape: Selection | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shape is None:
            self.shape = self.selection

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, free first then quantified (prefix order)."""
        return tuple(b.var for b in self.bindings) + tuple(s.var for s in self.prefix)

    def range_of(self, var: str) -> RangeExpr:
        """The (possibly extended) range expression of ``var``."""
        for binding in self.bindings:
            if binding.var == var:
                return binding.range
        for spec in self.prefix:
            if spec.var == var:
                return spec.range
        raise TransformError(f"prepared query has no variable {var!r}")

    def derived_predicates(self) -> list[DerivedPredicate]:
        """Every derived predicate, in the order the pushdowns were planned."""
        found: list[DerivedPredicate] = []
        for conjunction in self.conjunctions:
            for literal in conjunction:
                if isinstance(literal, DerivedPredicate):
                    _collect_derived(literal, found)
        return found


def _selection(plan: QueryPlan) -> Selection:
    """The resolved original selection; a late-bound plan derives it on first read."""
    if plan._selection is None:
        plan._selection = plan.derive_selection()
    return plan._selection


# After the decorator: ``selection`` stays an ``__init__`` field, set through this.
QueryPlan.selection = property(_selection, lambda plan, value: setattr(plan, "_selection", value))


def _collect_derived(predicate: DerivedPredicate, found: list[DerivedPredicate]) -> None:
    """Inner pushdowns first, each predicate once (module-level: no closure cycle)."""
    for inner in predicate.inner_derived:
        _collect_derived(inner, found)
    if predicate not in found:
        found.append(predicate)


def prepare_query(
    selection: Selection,
    database,
    options: StrategyOptions | None = None,
    resolve: bool = True,
    defer_restricted_ranges: bool = False,
) -> QueryPlan:
    """Run the full transformation pipeline on ``selection``.

    ``resolve=False`` skips type checking (used when the caller already
    resolved the selection, e.g. the engine's Strategy 3 fallback re-run).
    ``defer_restricted_ranges=True`` makes the Lemma 1 adaptation depend on
    the data only through whole-relation emptiness (see
    :func:`repro.transform.emptyrel.adapt_selection`) — required for plans
    that will be cached and re-executed (the service layer).
    """
    options = options or StrategyOptions()
    trace = TransformationTrace()

    if resolve:
        selection = TypeChecker.for_database(database).resolve(selection)
        trace.add("resolve", "scope and type checking against the catalog")

    # -- Lemma 1 runtime adaptation for empty base relations ----------------------------
    adapted_selection, adaptation = adapt_selection(
        selection, database, defer_restricted_ranges=defer_restricted_ranges
    )
    if adaptation.changed:
        removed = ", ".join(
            f"{kind} {var} IN {relation}" for kind, var, relation in adaptation.removed_quantifiers
        )
        trace.add("empty-relation adaptation", f"removed quantifiers over empty ranges: {removed}")
    working = adapted_selection

    # -- standard form ---------------------------------------------------------------------
    standard_form = to_standard_form(working)
    trace.add(
        "standard form",
        f"prenex prefix of {len(standard_form.prefix)} quantifiers, "
        f"{len(standard_form.conjunctions)} conjunction(s) in the matrix",
    )

    # -- Strategy 3: extended range expressions ----------------------------------------------
    if options.extended_ranges and not isinstance(standard_form.matrix, BoolConst):
        extension = extend_ranges(
            standard_form, general_extensions=options.general_range_extensions
        )
        if extension.changed:
            moved = ", ".join(
                f"{var}: {format_formula(formula)}"
                for var, formula in extension.extensions.items()
            )
            trace.add(
                "extended ranges (S3)",
                f"moved monadic restrictions into ranges ({moved}); "
                f"{extension.removed_conjunctions} conjunction(s) removed",
            )
            standard_form = extension.standard_form

    # -- constant matrix shortcut --------------------------------------------------------------
    matrix = standard_form.matrix
    if isinstance(matrix, BoolConst):
        trace.add("constant matrix", "matrix reduced to " + ("TRUE" if matrix.value else "FALSE"))
        return QueryPlan(
            selection=selection,
            bindings=tuple(standard_form.selection.bindings),
            prefix=standard_form.prefix,
            conjunctions=((matrix,),),
            options=options,
            trace=trace,
            constant=matrix.value,
        )

    conjunctions = tuple(conjunction_literals(c) for c in standard_form.conjunctions)
    prefix = standard_form.prefix

    # -- Strategy 4: collection-phase quantifier evaluation ---------------------------------------
    if options.collection_phase_quantifiers and prefix:
        pushdown: PushdownResult = plan_pushdowns(prefix, conjunctions)
        if pushdown.changed:
            detail = "; ".join(
                f"{step.predicate.quantifier} {step.predicate.inner_var} -> "
                f"value list on {step.predicate.outer_var}"
                + (f" [{step.shortcut}]" if step.shortcut else "")
                + (" [swapped]" if step.swapped else "")
                for step in pushdown.steps
            )
            trace.add("collection-phase quantifiers (S4)", detail)
        prefix = pushdown.prefix
        conjunctions = pushdown.conjunctions

    return QueryPlan(
        selection=selection,
        bindings=tuple(standard_form.selection.bindings),
        prefix=tuple(prefix),
        conjunctions=tuple(conjunctions),
        options=options,
        trace=trace,
    )
