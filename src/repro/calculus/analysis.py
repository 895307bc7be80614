"""Structural analysis of selection-expression formulae.

The standard-form conversion and the strategies of Section 4 ask *which
variables occur free in this formula?*, *which relations does this range
read?*, *what is the quantifier prefix?* and *is this matrix in disjunctive
normal form?*.  This module answers them as pure functions over the AST.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calculus.ast import (
    And,
    BoolConst,
    Comparison,
    Formula,
    Not,
    Or,
    Quantified,
    RangeExpr,
)
from repro.errors import CalculusError

__all__ = [
    "QuantifierSpec",
    "free_variables_of",
    "range_relations",
    "is_quantifier_free",
    "quantifier_prefix",
    "conjunctions_of",
    "literals_of",
    "is_dnf_matrix",
]


@dataclass(frozen=True)
class QuantifierSpec:
    """One entry of a prenex quantifier prefix."""

    kind: str
    var: str
    range: RangeExpr


# ------------------------------------------------------------------- variable queries


def free_variables_of(formula: Formula) -> set[str]:
    """Element variables occurring free in ``formula``."""
    if isinstance(formula, BoolConst):
        return set()
    if isinstance(formula, Comparison):
        return set(formula.variables())
    if isinstance(formula, Not):
        return free_variables_of(formula.child)
    if isinstance(formula, (And, Or)):
        result: set[str] = set()
        for operand in formula.operands:
            result |= free_variables_of(operand)
        return result
    if isinstance(formula, Quantified):
        inner = free_variables_of(formula.body)
        if formula.range.restriction is not None:
            inner |= free_variables_of(formula.range.restriction)
        inner.discard(formula.var)
        return inner
    raise CalculusError(f"unknown formula node {formula!r}")


def range_relations(range_expr: RangeExpr) -> list[str]:
    """The relation ``range_expr`` ranges over, then every relation its
    restriction quantifies over (their restrictions included), in source order."""
    names = [range_expr.relation]
    if range_expr.restriction is not None:
        for node in range_expr.restriction.walk():
            if isinstance(node, Quantified):
                names += range_relations(node.range)
    return names


# --------------------------------------------------------------------- prenex queries


def is_quantifier_free(formula: Formula) -> bool:
    """Whether ``formula`` contains no quantifier."""
    return not any(isinstance(node, Quantified) for node in formula.walk())


def quantifier_prefix(formula: Formula) -> tuple[list[QuantifierSpec], Formula]:
    """Split a formula into its leading quantifier prefix and the remainder.

    The prefix is read outside-in, i.e. the paper's "quantifiers must be
    evaluated from right to left" refers to the *last* entries of the returned
    list first.
    """
    prefix: list[QuantifierSpec] = []
    node = formula
    while isinstance(node, Quantified):
        prefix.append(QuantifierSpec(node.kind, node.var, node.range))
        node = node.body
    return prefix, node


# -------------------------------------------------------------------------- DNF queries


def conjunctions_of(matrix: Formula) -> list[Formula]:
    """The disjuncts of a DNF matrix (a single conjunction for non-Or matrices)."""
    if isinstance(matrix, Or):
        return list(matrix.operands)
    return [matrix]


def literals_of(conjunct: Formula) -> list[Formula]:
    """The literals (atoms or negated atoms) of one conjunction."""
    if isinstance(conjunct, And):
        return list(conjunct.operands)
    return [conjunct]


def is_dnf_matrix(matrix: Formula) -> bool:
    """Whether a quantifier-free formula is in disjunctive normal form."""
    if not is_quantifier_free(matrix):
        return False
    for conjunct in conjunctions_of(matrix):
        for literal in literals_of(conjunct):
            if isinstance(literal, (Comparison, BoolConst)):
                continue
            if isinstance(literal, Not) and isinstance(literal.child, (Comparison, BoolConst)):
                continue
            return False
    return True
