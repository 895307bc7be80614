"""Runtime adaptation of queries for empty range relations.

The compiler's standard form "assumes that all range relations are non-empty
but provides information to adapt the standard form at runtime if necessary"
(Section 2).  Example 2.2 shows the adaptation: when ``papers`` is empty the
whole ``ALL p IN papers (...)`` sub-formula is vacuously true and the query
collapses to ``e.estatus = professor``; evaluating the un-adapted normal form
would instead return *every* employee's name.

The adaptation implemented here is applied to the *original* (pre-normal-form)
selection expression, before prenexing:

* ``SOME v IN r (B)`` with empty ``r`` (after applying its range restriction,
  if any) becomes ``FALSE``;
* ``ALL v IN r (B)`` with empty ``r`` becomes ``TRUE``;
* the result is simplified, so enclosing conjunctions/disjunctions collapse
  exactly as Lemma 1 rules 2 and 3 prescribe.

Free-variable ranges are left alone: an empty free range simply produces an
empty result, which the evaluators handle naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.calculus.ast import (
    ALL,
    And,
    BoolConst,
    Comparison,
    FALSE,
    Formula,
    Not,
    Or,
    Quantified,
    RangeExpr,
    Selection,
    SOME,
    TRUE,
)
from repro.errors import TransformError
from repro.transform.rewriter import simplify

__all__ = ["EmptyRangeAdaptation", "adapt_formula", "adapt_selection"]


@dataclass(frozen=True)
class EmptyRangeAdaptation:
    """The result of the runtime adaptation."""

    formula: Formula
    removed_quantifiers: tuple[tuple[str, str, str], ...]
    """``(kind, variable, relation)`` triples of the quantifiers that were removed."""

    @property
    def changed(self) -> bool:
        return bool(self.removed_quantifiers)


def _restricted_range_is_empty(
    range_expr: RangeExpr,
    var: str,
    relation_is_empty: Callable[[str], bool],
    restriction_is_unsatisfied: Callable[[RangeExpr, str], bool] | None,
) -> bool:
    if relation_is_empty(range_expr.relation):
        return True
    if range_expr.restriction is not None and restriction_is_unsatisfied is not None:
        return restriction_is_unsatisfied(range_expr, var)
    return False


def adapt_formula(
    formula: Formula,
    relation_is_empty: Callable[[str], bool],
    restriction_is_unsatisfied: Callable[[RangeExpr, str], bool] | None = None,
) -> EmptyRangeAdaptation:
    """Replace quantifiers over empty ranges by boolean constants and simplify.

    ``relation_is_empty`` is the runtime oracle (normally
    ``lambda name: database.relation(name).is_empty()``).  The optional
    ``restriction_is_unsatisfied`` oracle extends the test to *extended*
    range expressions whose restriction filters out every element; it is used
    when the adaptation runs after Strategy 3.
    """
    removed: list[tuple[str, str, str]] = []
    adapted = simplify(
        _adapt(formula, relation_is_empty, restriction_is_unsatisfied, removed)
    )
    return EmptyRangeAdaptation(adapted, tuple(removed))


def _adapt(
    node: Formula,
    relation_is_empty: Callable[[str], bool],
    restriction_is_unsatisfied: Callable[[RangeExpr, str], bool] | None,
    removed: list[tuple[str, str, str]],
) -> Formula:
    # A module-level recursion, not a closure calling itself: a
    # self-referential closure is a reference cycle that would keep the
    # oracles — and through them the database — alive until a full collection.
    if isinstance(node, (BoolConst, Comparison)):
        return node
    oracles = (relation_is_empty, restriction_is_unsatisfied, removed)
    if isinstance(node, Not):
        return Not(_adapt(node.child, *oracles))
    if isinstance(node, And):
        return And(*(_adapt(operand, *oracles) for operand in node.operands))
    if isinstance(node, Or):
        return Or(*(_adapt(operand, *oracles) for operand in node.operands))
    if isinstance(node, Quantified):
        if _restricted_range_is_empty(
            node.range, node.var, relation_is_empty, restriction_is_unsatisfied
        ):
            removed.append((node.kind, node.var, node.range.relation))
            return TRUE if node.kind == ALL else FALSE
        return Quantified(node.kind, node.var, node.range, _adapt(node.body, *oracles))
    raise TransformError(f"cannot adapt unknown node {node!r}")


def adapt_selection(
    selection: Selection, database, defer_restricted_ranges: bool = False
) -> tuple[Selection, EmptyRangeAdaptation]:
    """Adapt a selection for the current contents of ``database``.

    Returns the (possibly unchanged) selection plus the adaptation record used
    in EXPLAIN output and the Lemma 1 experiments.

    With ``defer_restricted_ranges=True``, a quantifier range with a
    *restriction* is always assumed satisfiable: deciding it requires
    scanning the data, which a cached plan cannot depend on.  The service
    layer prepares plans this way — compilation then depends on the data
    only through whole-relation emptiness — and the empty case is handled
    at execution by the engine's Strategy 3 fallback
    (:class:`~repro.engine.collection.ExtendedRangeEmptyError`), whose
    re-prepare uses the default (data-scanning) mode and therefore
    converges.
    """

    def relation_is_empty(name: str) -> bool:
        return database.relation(name).is_empty()

    def restriction_is_unsatisfied(range_expr: RangeExpr, var: str) -> bool:
        from repro.calculus.ast import Param
        from repro.engine.naive import range_elements  # local import to avoid a cycle

        # A parameterized restriction cannot be decided at prepare time:
        # assume it is satisfiable and leave the empty case to the engine's
        # runtime Strategy 3 fallback (ExtendedRangeEmptyError).
        for node in range_expr.restriction.walk():
            if isinstance(node, Comparison) and any(
                isinstance(operand, Param) for operand in (node.left, node.right)
            ):
                return False
        return not any(True for _ in range_elements(database, range_expr, var))

    adaptation = adapt_formula(
        selection.formula,
        relation_is_empty,
        None if defer_restricted_ranges else restriction_is_unsatisfied,
    )
    if not adaptation.changed and adaptation.formula == selection.formula:
        return selection, adaptation
    return selection.with_formula(adaptation.formula), adaptation
