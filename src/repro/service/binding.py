"""Parameter collection and late binding.

A parameterized selection contains :class:`~repro.calculus.ast.Param`
operands (``$year``, ``$status``...).  The compile-time pipeline — parsing,
type checking, the Section 2-3 transformations — runs once over the
parameterized form; this module supplies the run-time half:

* :func:`collect_parameters` walks a selection (or a compiled
  :class:`~repro.transform.pipeline.QueryPlan`) and returns the declared
  parameters with the scalar types the type checker attached to them;
* :func:`bind_selection` substitutes concrete constants into a selection
  (used for the naive ground-truth evaluation of a bound query);
* :func:`bind_plan` substitutes concrete constants directly into the parts of
  a compiled plan that hold a parameter, so execution never re-runs the
  transformations.

Values are coerced through the parameter's resolved scalar type, so an
enumeration label bound as ``{"status": "professor"}`` becomes a proper
``EnumValue`` exactly as a literal constant would.  Mismatched bindings
(missing, unknown, or out-of-type values) raise
:class:`~repro.errors.BindingError`.

The plan cache compiles a text with its literal constants lifted to
positional parameters (``$0``, ``$1``... — names no text can spell) and
binds each text's own literals through the same functions.  Two things
serve that: a name bound to :data:`UNBOUND` stays a parameter, which is how
a text's plan *as written* — its literals constants, its ``$names`` still
parameters — is derived from the shared one; and :func:`bind_plan` takes the
positional names along, to put the literals into the trace's wording too.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import cached_property, partial
from operator import is_
from typing import Any, Collection, Mapping

from repro.calculus.analysis import QuantifierSpec, range_relations
from repro.calculus.ast import (
    And,
    BoolConst,
    Comparison,
    Const,
    Formula,
    Not,
    Or,
    Param,
    Quantified,
    RangeExpr,
    Selection,
    VariableBinding,
)
from repro.calculus.printer import format_operand
from repro.errors import BindingError, ValidationError
from repro.transform.pipeline import QueryPlan, TraceStep, TransformationTrace
from repro.transform.quantifier_pushdown import DerivedPredicate

__all__ = [
    "UNBOUND",
    "collect_parameters",
    "referenced_relations",
    "bind_selection",
    "bind_plan",
    "check_bindings",
]

#: Bound to a parameter's name in place of a value: the parameter stays.
UNBOUND = object()


def referenced_relations(selection: Selection) -> frozenset[str]:
    """Every relation a selection ranges over (free bindings and quantifiers,
    including ranges appearing inside extended-range restrictions)."""
    names: set[str] = set()
    for binding in selection.bindings:
        names.update(range_relations(binding.range))
    for node in selection.formula.walk():
        if isinstance(node, Quantified):
            names.update(range_relations(node.range))
    return frozenset(names)


# ------------------------------------------------------------------ parameter discovery


def _collect_from_operand(operand: Any, found: dict[str, Param]) -> None:
    if isinstance(operand, Param):
        known = found.get(operand.name)
        # Prefer an occurrence that carries a resolved type.
        if known is None or (known.type is None and operand.type is not None):
            found[operand.name] = operand


def _collect_from_formula(formula: Formula, found: dict[str, Param]) -> None:
    if isinstance(formula, Comparison):
        _collect_from_operand(formula.left, found)
        _collect_from_operand(formula.right, found)
        return
    if isinstance(formula, Quantified):
        _collect_from_range(formula.range, found)
    for child in formula.children():
        _collect_from_formula(child, found)


def _collect_from_range(range_expr: RangeExpr, found: dict[str, Param]) -> None:
    if range_expr.restriction is not None:
        _collect_from_formula(range_expr.restriction, found)


def collect_parameters(query: Selection | QueryPlan) -> dict[str, Param]:
    """The parameters declared by ``query``, keyed by name.

    Accepts either a (possibly resolved) selection or a compiled plan; the
    returned :class:`Param` objects carry the scalar type the type checker
    attached, when the query was resolved.  A plan's structures are all
    derived from its stored original selection, so the plan case delegates
    to the selection walk.
    """
    if isinstance(query, QueryPlan):
        return collect_parameters(query.selection)
    found: dict[str, Param] = {}
    for binding in query.bindings:
        _collect_from_range(binding.range, found)
    _collect_from_formula(query.formula, found)
    return found


def check_bindings(
    parameters: Mapping[str, Param], values: Mapping[str, Any]
) -> dict[str, Any]:
    """Validate ``values`` against ``parameters`` and coerce them.

    Returns the coerced value per parameter name; raises
    :class:`BindingError` on missing or unknown parameters and on values
    outside a parameter's resolved scalar type.
    """
    missing = sorted(set(parameters) - set(values))
    if missing:
        raise BindingError(
            "missing value(s) for parameter(s): " + ", ".join(f"${name}" for name in missing)
        )
    unknown = sorted(set(values) - set(parameters))
    if unknown:
        raise BindingError(
            "binding(s) for undeclared parameter(s): "
            + ", ".join(f"${name}" for name in unknown)
        )
    coerced: dict[str, Any] = {}
    for name, parameter in parameters.items():
        value = values[name]
        if parameter.type is not None:
            try:
                value = parameter.type.coerce(value)
            except ValidationError as exc:
                raise BindingError(
                    f"value {values[name]!r} for parameter ${name} is not a value of "
                    f"type {parameter.type.name!r}: {exc}"
                ) from exc
        coerced[name] = value
    return coerced


# ------------------------------------------------------------------------- substitution


def _bind_operand(operand: Any, values: Mapping[str, Any]) -> Any:
    if isinstance(operand, Param):
        try:
            value = values[operand.name]
        except KeyError:
            raise BindingError(f"no value bound for parameter ${operand.name}") from None
        if value is UNBOUND:
            return operand
        if operand.type is not None:
            # A parameter may occur at several components with different
            # (comparable) types; enforce EVERY occurrence's type, exactly
            # like the literal-constant equivalent would at typecheck time.
            try:
                value = operand.type.coerce(value)
            except ValidationError as exc:
                raise BindingError(
                    f"value {value!r} for parameter ${operand.name} is not a value "
                    f"of type {operand.type.name!r}: {exc}"
                ) from exc
        return Const(value)
    return operand


def _bind_formula(formula: Formula, values: Mapping[str, Any]) -> Formula:
    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, Comparison):
        left = _bind_operand(formula.left, values)
        right = _bind_operand(formula.right, values)
        if left is formula.left and right is formula.right:
            return formula
        return Comparison(left, formula.op, right)
    if isinstance(formula, Not):
        child = _bind_formula(formula.child, values)
        return formula if child is formula.child else Not(child)
    if isinstance(formula, And):
        operands = tuple(_bind_formula(o, values) for o in formula.operands)
        if all(new is old for new, old in zip(operands, formula.operands)):
            return formula
        return And(*operands)
    if isinstance(formula, Or):
        operands = tuple(_bind_formula(o, values) for o in formula.operands)
        if all(new is old for new, old in zip(operands, formula.operands)):
            return formula
        return Or(*operands)
    if isinstance(formula, Quantified):
        range_expr = _bind_range(formula.range, values)
        body = _bind_formula(formula.body, values)
        if range_expr is formula.range and body is formula.body:
            return formula
        return Quantified(formula.kind, formula.var, range_expr, body)
    raise BindingError(f"cannot bind parameters in {formula!r}")


def _bind_range(range_expr: RangeExpr, values: Mapping[str, Any]) -> RangeExpr:
    if range_expr.restriction is None:
        return range_expr
    restriction = _bind_formula(range_expr.restriction, values)
    if restriction is range_expr.restriction:
        return range_expr
    return RangeExpr(range_expr.relation, restriction)


def _bind_all(bind, items: tuple, values: Mapping[str, Any]) -> tuple:
    """``bind`` applied to each of ``items`` — ``items`` itself when none changed."""
    bound = [bind(item, values) for item in items]
    return items if all(map(is_, bound, items)) else tuple(bound)


def _bind_binding(binding: VariableBinding, values: Mapping[str, Any]) -> VariableBinding:
    range_expr = _bind_range(binding.range, values)
    return binding if range_expr is binding.range else VariableBinding(binding.var, range_expr)


def _bind_spec(spec: QuantifierSpec, values: Mapping[str, Any]) -> QuantifierSpec:
    range_expr = _bind_range(spec.range, values)
    return spec if range_expr is spec.range else QuantifierSpec(spec.kind, spec.var, range_expr)


def _bind_literal(literal: object, values: Mapping[str, Any]) -> object:
    if isinstance(literal, Comparison):
        return _bind_formula(literal, values)
    if isinstance(literal, DerivedPredicate):
        parts = {
            "inner_range": _bind_range(literal.inner_range, values),
            "connecting": _bind_all(_bind_formula, literal.connecting, values),
            "inner_monadic": _bind_all(_bind_formula, literal.inner_monadic, values),
            "inner_derived": _bind_all(_bind_literal, literal.inner_derived, values),
        }
        if any(new is not getattr(literal, name) for name, new in parts.items()):
            return replace(literal, **parts)
    return literal


def bind_selection(selection: Selection, values: Mapping[str, Any]) -> Selection:
    """``selection`` with every parameter replaced by a constant.

    ``values`` must already be coerced (see :func:`check_bindings`); unknown
    parameter occurrences raise :class:`BindingError`, and a parameter whose
    value is :data:`UNBOUND` stays in place.
    """
    bindings = tuple(
        VariableBinding(b.var, _bind_range(b.range, values)) for b in selection.bindings
    )
    return Selection(selection.columns, bindings, _bind_formula(selection.formula, values))


_POSITIONAL = re.compile(r"\$(\d+)")


class _LiteralTrace(TransformationTrace):
    """``trace`` worded with the constants the positional parameters stand
    for, when its steps are first read (no execution reads them).

    ``$`` before a digit occurs in a step's text only where the printer
    rendered a positional parameter: no query text can spell it, and a
    lifted text's own strings are parameters, not part of the wording.
    """

    def __init__(self, trace: TransformationTrace, values: Mapping, positional: Collection) -> None:
        self._wording = trace, values, positional

    @cached_property
    def steps(self) -> list[TraceStep]:
        trace, values, positional = self._wording

        def constant(match: re.Match) -> str:
            name = match.group(1)
            if name in positional and values.get(name, UNBOUND) is not UNBOUND:
                return format_operand(Const(values[name]))
            return match.group(0)

        return [TraceStep(step.name, _POSITIONAL.sub(constant, step.detail)) for step in trace.steps]


def bind_plan(
    plan: QueryPlan, values: Mapping[str, Any], positional: Collection[str] = ()
) -> QueryPlan:
    """``plan`` with every parameter replaced by a constant — late binding.

    The substitution is purely structural and rebuilds only what holds a
    parameter: a binding, range, literal or derived predicate without one —
    and a tuple of them — is ``plan``'s own object, as are its ``shape`` and
    the cells the engine fills.  What no execution reads is derived on first
    read: the bound ``selection``, and for ``positional`` (the names standing
    for literals lifted out of the text) the trace's wording.
    """
    values = dict(values)
    return QueryPlan(
        selection=None,
        bindings=_bind_all(_bind_binding, plan.bindings, values),
        prefix=_bind_all(_bind_spec, plan.prefix, values),
        conjunctions=plan.conjunctions if plan.constant is not None  # no literal
        else _bind_all(partial(_bind_all, _bind_literal), plan.conjunctions, values),
        options=plan.options,
        trace=_LiteralTrace(plan.trace, values, positional) if positional else plan.trace,
        constant=plan.constant,
        result_schema=plan.result_schema,
        selection_plan=plan.selection_plan,
        combination_schemas=plan.combination_schemas,
        derive_selection=partial(bind_selection, plan.shape, values),
        shape=plan.shape,
    )
