"""Structural analysis of selection-expression formulae.

The transformation strategies of Section 4 need to answer questions such as
*which variables occur in this formula?*, *is the formula in prenex normal
form?*, *in how many conjunctions of the matrix does variable ``p`` occur?*
(the applicability condition of Strategy 4), and *which join terms are monadic
over variable ``c``?* (the inputs of Strategies 2 and 3).  This module
provides those queries as pure functions over the AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.calculus.ast import (
    ALL,
    SOME,
    And,
    BoolConst,
    Comparison,
    FieldRef,
    Formula,
    Not,
    Or,
    Quantified,
    RangeExpr,
    Selection,
)
from repro.errors import CalculusError

__all__ = [
    "QuantifierSpec",
    "variables_of",
    "free_variables_of",
    "bound_variables_of",
    "atoms_of",
    "comparisons_of",
    "field_refs_of",
    "relations_of",
    "range_relations",
    "is_quantifier_free",
    "is_prenex",
    "quantifier_prefix",
    "matrix_of",
    "conjunctions_of",
    "literals_of",
    "is_dnf_matrix",
    "conjunctions_containing",
    "monadic_terms_over",
    "dyadic_terms_over",
    "variable_occurrence_counts",
    "has_universal_quantifier",
    "formula_size",
    "formula_depth",
]


@dataclass(frozen=True)
class QuantifierSpec:
    """One entry of a prenex quantifier prefix."""

    kind: str
    var: str
    range: RangeExpr

    def is_existential(self) -> bool:
        return self.kind == SOME

    def is_universal(self) -> bool:
        return self.kind == ALL


# ------------------------------------------------------------------- variable queries


def variables_of(formula: Formula) -> set[str]:
    """Every element variable occurring in ``formula`` (free or bound)."""
    names: set[str] = set()
    for node in formula.walk():
        if isinstance(node, Comparison):
            names.update(node.variables())
        elif isinstance(node, Quantified):
            names.add(node.var)
            if node.range.restriction is not None:
                names.update(variables_of(node.range.restriction))
    return names


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


def bound_variables_of(formula: Formula) -> set[str]:
    """Element variables bound by a quantifier somewhere in ``formula``."""
    return {node.var for node in formula.walk() if isinstance(node, Quantified)}


# ----------------------------------------------------------------------- atom queries


def atoms_of(formula: Formula) -> Iterator[Formula]:
    """All atomic sub-formulae (comparisons and boolean constants)."""
    for node in formula.walk():
        if isinstance(node, (Comparison, BoolConst)):
            yield node


def comparisons_of(formula: Formula) -> list[Comparison]:
    """All join terms occurring in ``formula`` (including inside range restrictions)."""
    found: list[Comparison] = []
    for node in formula.walk():
        if isinstance(node, Comparison):
            found.append(node)
        elif isinstance(node, Quantified) and node.range.restriction is not None:
            found.extend(comparisons_of(node.range.restriction))
    return found


def field_refs_of(formula: Formula) -> list[FieldRef]:
    """All ``variable.component`` operands in ``formula``."""
    refs = []
    for comparison in comparisons_of(formula):
        for operand in (comparison.left, comparison.right):
            if isinstance(operand, FieldRef):
                refs.append(operand)
    return refs


def relations_of(selection: Selection) -> set[str]:
    """Every database relation a selection ranges over (free or quantified)."""
    names = {binding.range.relation for binding in selection.bindings}
    for node in selection.formula.walk():
        if isinstance(node, Quantified):
            names.add(node.range.relation)
    return names


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


def is_prenex(formula: Formula) -> bool:
    """Whether all quantifiers form a prefix in front of a quantifier-free matrix."""
    _, matrix = quantifier_prefix(formula)
    return is_quantifier_free(matrix)


def matrix_of(formula: Formula) -> Formula:
    """The quantifier-free matrix of a prenex formula."""
    prefix, matrix = quantifier_prefix(formula)
    if not is_quantifier_free(matrix):
        raise CalculusError("formula is not in prenex normal form")
    return matrix


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


def conjunctions_containing(matrix: Formula, var: str) -> list[Formula]:
    """The DNF conjunctions in which variable ``var`` occurs.

    This is the applicability test of Strategy 4 for a universally quantified
    variable: splitting is only possible "if vn occurs in no more than one
    conjunction" (Section 4.4, case 2).
    """
    return [
        conjunct
        for conjunct in conjunctions_of(matrix)
        if var in free_variables_of(conjunct)
    ]


def monadic_terms_over(formula: Formula, var: str) -> list[Comparison]:
    """Monadic join terms over ``var`` appearing (positively) in ``formula``."""
    return [
        comparison
        for comparison in comparisons_of(formula)
        if comparison.is_monadic() and comparison.mentions(var)
    ]


def dyadic_terms_over(formula: Formula, var: str) -> list[Comparison]:
    """Dyadic join terms mentioning ``var`` appearing in ``formula``."""
    return [
        comparison
        for comparison in comparisons_of(formula)
        if comparison.is_dyadic() and comparison.mentions(var)
    ]


def variable_occurrence_counts(matrix: Formula) -> dict[str, int]:
    """For each variable, the number of DNF conjunctions it occurs in."""
    counts: dict[str, int] = {}
    for conjunct in conjunctions_of(matrix):
        for var in free_variables_of(conjunct):
            counts[var] = counts.get(var, 0) + 1
    return counts


def has_universal_quantifier(formula: Formula) -> bool:
    """Whether any universal quantifier occurs in ``formula``."""
    return any(
        isinstance(node, Quantified) and node.kind == ALL for node in formula.walk()
    )


# --------------------------------------------------------------------------- metrics


def formula_size(formula: Formula) -> int:
    """Number of AST nodes (a rough complexity measure used in reports)."""
    return sum(1 for _ in formula.walk())


def formula_depth(formula: Formula) -> int:
    """Height of the formula tree."""
    children = formula.children()
    if not children:
        return 1
    return 1 + max(formula_depth(child) for child in children)
