"""The naive evaluator: direct interpretation of selection expressions.

This evaluator applies the textbook semantics of the calculus — nested
iteration over the free-variable ranges, short-circuit evaluation of
quantifiers — with no intermediate structures at all.  It plays two roles:

* it is the **semantic ground truth** every transformation and the
  phase-structured engine are property-tested against, and
* it is the **pre-Palermo baseline** in the benchmarks: each quantifier
  re-reads its range relation for every binding of the outer variables, which
  is precisely the repeated-access behaviour the collection phase is designed
  to avoid.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.calculus.ast import (
    ALL,
    And,
    BoolConst,
    Comparison,
    Const,
    FieldRef,
    Formula,
    Not,
    Or,
    Param,
    Quantified,
    RangeExpr,
    Selection,
)
from repro.engine.result import project_environment, result_relation_for
from repro.errors import EvaluationError
from repro.relational.record import Record
from repro.relational.relation import Relation
from repro.types.scalar import compare_values

__all__ = ["evaluate_formula", "evaluate_selection_naive", "range_elements", "operand_value"]


def operand_value(operand: Any, environment: Mapping[str, Record]) -> Any:
    """The value of a join-term operand under a variable binding environment."""
    if isinstance(operand, Const):
        return operand.value
    if isinstance(operand, Param):
        raise EvaluationError(
            f"parameter ${operand.name} has no bound value; bind parameters "
            "(repro.service.bind_selection or PreparedQuery.execute) before evaluating"
        )
    if isinstance(operand, FieldRef):
        try:
            record = environment[operand.var]
        except KeyError:
            raise EvaluationError(
                f"variable {operand.var!r} is not bound in the current environment"
            ) from None
        return record[operand.field]
    raise EvaluationError(f"unknown operand {operand!r}")


def range_elements(database, range_expr: RangeExpr, var: str) -> Iterator[Record]:
    """Iterate the elements of a (possibly extended) range expression.

    The underlying relation is read through the access-counted
    :meth:`Relation.scan`, which charges each element as it is read, so the
    naive evaluator's repeated reads show up in the statistics — and a test
    that stops at the first element in range pays for what it read, also on
    a pin, whose own ``scan`` charges the whole relation at once.
    """
    relation = database.relation(range_expr.relation)
    for record in Relation.scan(relation):
        if range_expr.restriction is None or evaluate_formula(
            range_expr.restriction, {var: record}, database
        ):
            yield record


def evaluate_formula(
    formula: Formula, environment: Mapping[str, Record], database
) -> bool:
    """Evaluate a selection-expression formula under ``environment``."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Comparison):
        left = operand_value(formula.left, environment)
        right = operand_value(formula.right, environment)
        tracker = getattr(database, "statistics", None)
        if tracker is not None:
            tracker.record_comparison()
        return compare_values(formula.op, left, right)
    if isinstance(formula, Not):
        return not evaluate_formula(formula.child, environment, database)
    if isinstance(formula, And):
        return all(evaluate_formula(o, environment, database) for o in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate_formula(o, environment, database) for o in formula.operands)
    if isinstance(formula, Quantified):
        inner_env = dict(environment)
        if formula.kind == ALL:
            for record in range_elements(database, formula.range, formula.var):
                inner_env[formula.var] = record
                if not evaluate_formula(formula.body, inner_env, database):
                    return False
            return True
        for record in range_elements(database, formula.range, formula.var):
            inner_env[formula.var] = record
            if evaluate_formula(formula.body, inner_env, database):
                return True
        return False
    raise EvaluationError(f"cannot evaluate unknown formula node {formula!r}")


def evaluate_selection_naive(selection: Selection, database) -> Relation:
    """Evaluate ``selection`` directly and return the result relation.

    The selection should already be resolved (constants coerced); use
    :func:`repro.calculus.typecheck.resolve_selection` first when evaluating a
    freshly parsed query.
    """
    result = result_relation_for(selection, database)

    def recurse(binding_index: int, environment: dict[str, Record]) -> None:
        if binding_index == len(selection.bindings):
            if evaluate_formula(selection.formula, environment, database):
                # The result is a set keyed on all components: inserting an
                # element it already holds is a no-op.
                result.insert(project_environment(selection, environment, result.schema))
            return
        binding = selection.bindings[binding_index]
        for record in range_elements(database, binding.range, binding.var):
            environment[binding.var] = record
            recurse(binding_index + 1, environment)
        environment.pop(binding.var, None)

    recurse(0, {})
    return result
