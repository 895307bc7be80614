"""Standard form: prenex normal form with a matrix in disjunctive normal form.

Section 2 of the paper: *"We prefer a standardized starting point for
optimization.  Therefore, the PASCAL/R compiler transforms each selection
expression into prenex normal form with a matrix in disjunctive normal form.
It assumes that all range relations are non-empty but provides information to
adapt the standard form at runtime if necessary."*

The pipeline implemented here is

1. **negation normal form** — push ``NOT`` inward; over join terms the
   comparison operator is complemented (``NOT (a = b)`` becomes ``a <> b``),
   over quantifiers the quantifier is dualised (``NOT SOME`` → ``ALL NOT``);
2. **prenex normal form** — pull quantifiers in front, renaming bound
   variables when necessary to avoid capture.  Pulling a quantifier out of a
   disjunction/conjunction it does not fully govern relies on the non-empty
   range assumption of Lemma 1 rules 2 and 3; the runtime adaptation
   (:mod:`repro.transform.emptyrel`) removes empty ranges *before* this step;
3. **disjunctive normal form** of the quantifier-free matrix.

The paper also notes (end of Section 2) that queries with only existential
quantifiers can evaluate each conjunction separately because the existential
quantifier distributes over disjunction; the engine does so under
``StrategyOptions.separate_existential_conjunctions``
(:meth:`repro.engine.evaluator.QueryEngine.execute_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian_product

from repro.calculus.analysis import (
    QuantifierSpec,
    free_variables_of,
    is_dnf_matrix,
    quantifier_prefix,
)
from repro.calculus.ast import (
    ALL,
    And,
    BoolConst,
    Comparison,
    Formula,
    Not,
    Or,
    Quantified,
    RangeExpr,
    Selection,
    SOME,
)
from repro.errors import TransformError
from repro.transform.rewriter import (
    conjoin,
    disjoin,
    fresh_variable,
    rename_variable,
    simplify,
)
from repro.types.scalar import negate_operator

__all__ = [
    "StandardForm",
    "to_negation_normal_form",
    "to_prenex_normal_form",
    "to_disjunctive_normal_form",
    "to_standard_form",
]


@dataclass(frozen=True)
class StandardForm:
    """A selection in standard form: quantifier prefix plus DNF matrix."""

    selection: Selection
    prefix: tuple[QuantifierSpec, ...]
    matrix: Formula

    @property
    def conjunctions(self) -> tuple[Formula, ...]:
        """The disjuncts of the matrix."""
        if isinstance(self.matrix, Or):
            return self.matrix.operands
        return (self.matrix,)

    def to_formula(self) -> Formula:
        """Reassemble prefix and matrix into a single prenex formula."""
        formula = self.matrix
        for spec in reversed(self.prefix):
            formula = Quantified(spec.kind, spec.var, spec.range, formula)
        return formula

    def to_selection(self) -> Selection:
        """The selection whose formula is the reassembled standard form."""
        return self.selection.with_formula(self.to_formula())


# ------------------------------------------------------------- negation normal form


def to_negation_normal_form(formula: Formula) -> Formula:
    """Push negations inward until none remain (join terms absorb them)."""
    return _nnf(formula, negated=False)


def _nnf(formula: Formula, negated: bool) -> Formula:
    if isinstance(formula, BoolConst):
        return BoolConst(not formula.value) if negated else formula
    if isinstance(formula, Comparison):
        if not negated:
            return formula
        return Comparison(formula.left, negate_operator(formula.op), formula.right)
    if isinstance(formula, Not):
        return _nnf(formula.child, not negated)
    if isinstance(formula, And):
        operands = tuple(_nnf(o, negated) for o in formula.operands)
        return Or(*operands) if negated else And(*operands)
    if isinstance(formula, Or):
        operands = tuple(_nnf(o, negated) for o in formula.operands)
        return And(*operands) if negated else Or(*operands)
    if isinstance(formula, Quantified):
        kind = formula.kind
        if negated:
            kind = ALL if kind == SOME else SOME
        return Quantified(kind, formula.var, formula.range, _nnf(formula.body, negated))
    raise TransformError(f"cannot normalise unknown node {formula!r}")


# ------------------------------------------------------------------ prenex normal form


def to_prenex_normal_form(formula: Formula) -> Formula:
    """Pull every quantifier to the front of a negation-normal-form formula.

    Bound variables are renamed apart when two quantifiers use the same name
    or a quantified name collides with a free variable.  The result preserves
    the relative order of quantifiers as they are encountered left-to-right,
    outside-in, which matches the paper's Example 2.2 (``ALL p SOME c SOME t``).
    """
    nnf = to_negation_normal_form(formula)
    renamed = _rename_apart(nnf, seen=set(free_variables_of(nnf)))
    prefix, matrix = _pull_quantifiers(renamed)
    result = matrix
    for spec in reversed(prefix):
        result = Quantified(spec.kind, spec.var, spec.range, result)
    return result


def _rename_apart(formula: Formula, seen: set[str]) -> Formula:
    """Ensure every quantifier binds a distinct, non-clashing variable name.

    ``seen`` is a shared, mutable set of names that are already in use: the
    free variables plus every binder accepted so far anywhere in the formula.
    Once quantifiers are pulled into a single prefix, two binders with the
    same name — nested *or* in sibling branches — would merge scopes, so any
    re-used name gets a fresh one.
    """
    if isinstance(formula, (BoolConst, Comparison)):
        return formula
    if isinstance(formula, Not):
        return Not(_rename_apart(formula.child, seen))
    if isinstance(formula, And):
        return And(*(_rename_apart(o, seen) for o in formula.operands))
    if isinstance(formula, Or):
        return Or(*(_rename_apart(o, seen) for o in formula.operands))
    if isinstance(formula, Quantified):
        var = formula.var
        body = formula.body
        range_expr = formula.range
        if var in seen:
            fresh = fresh_variable(var, seen)
            body = rename_variable(body, var, fresh)
            if range_expr.restriction is not None:
                range_expr = RangeExpr(
                    range_expr.relation, rename_variable(range_expr.restriction, var, fresh)
                )
            var = fresh
        seen.add(var)
        if range_expr.restriction is not None:
            range_expr = RangeExpr(range_expr.relation, _rename_apart(range_expr.restriction, seen))
        return Quantified(formula.kind, var, range_expr, _rename_apart(body, seen))
    raise TransformError(f"cannot rename unknown node {formula!r}")


def _pull_quantifiers(formula: Formula) -> tuple[list[QuantifierSpec], Formula]:
    if isinstance(formula, (BoolConst, Comparison)):
        return [], formula
    if isinstance(formula, Not):
        prefix, matrix = _pull_quantifiers(formula.child)
        if prefix:
            raise TransformError("negation above a quantifier after NNF — formula was not in NNF")
        return [], Not(matrix)
    if isinstance(formula, Quantified):
        inner_prefix, matrix = _pull_quantifiers(formula.body)
        spec = QuantifierSpec(formula.kind, formula.var, formula.range)
        return [spec] + inner_prefix, matrix
    if isinstance(formula, (And, Or)):
        prefix: list[QuantifierSpec] = []
        matrices = []
        for operand in formula.operands:
            operand_prefix, operand_matrix = _pull_quantifiers(operand)
            prefix.extend(operand_prefix)
            matrices.append(operand_matrix)
        combined = And(*matrices) if isinstance(formula, And) else Or(*matrices)
        return prefix, combined
    raise TransformError(f"cannot pull quantifiers out of {formula!r}")


# --------------------------------------------------------------- disjunctive normal form


def to_disjunctive_normal_form(matrix: Formula) -> Formula:
    """Convert a quantifier-free, negation-normal-form matrix into DNF."""
    simplified = simplify(matrix)
    if isinstance(simplified, BoolConst):
        return simplified
    dnf_clauses = _dnf_clauses(simplified)
    conjunctions = [conjoin(clause) for clause in dnf_clauses]
    return simplify(disjoin(conjunctions))


def _dnf_clauses(formula: Formula) -> list[list[Formula]]:
    if isinstance(formula, (Comparison, BoolConst)):
        return [[formula]]
    if isinstance(formula, Not):
        # NNF guarantees the child is atomic.
        return [[formula]]
    if isinstance(formula, Or):
        clauses: list[list[Formula]] = []
        for operand in formula.operands:
            clauses.extend(_dnf_clauses(operand))
        return clauses
    if isinstance(formula, And):
        operand_clauses = [_dnf_clauses(o) for o in formula.operands]
        clauses = []
        for combination in cartesian_product(*operand_clauses):
            merged: list[Formula] = []
            for clause in combination:
                merged.extend(clause)
            clauses.append(merged)
        return clauses
    raise TransformError(f"matrix contains a quantifier or unknown node: {formula!r}")


# -------------------------------------------------------------------------- standard form


def to_standard_form(selection: Selection) -> StandardForm:
    """Transform a selection into the compiler's standard form.

    The caller is expected to have removed empty range relations first
    (:func:`repro.transform.emptyrel.adapt_selection`); this function assumes
    all ranges are non-empty, exactly like the PASCAL/R compiler.
    """
    prenex = to_prenex_normal_form(selection.formula)
    prefix, matrix = quantifier_prefix(prenex)
    dnf_matrix = to_disjunctive_normal_form(matrix)
    if not is_dnf_matrix(dnf_matrix) and not isinstance(dnf_matrix, BoolConst):
        raise TransformError("DNF conversion failed to produce a DNF matrix")
    return StandardForm(selection, tuple(prefix), dnf_matrix)
