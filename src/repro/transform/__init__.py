"""Logic-level query transformations: standard form, Lemma 1, Strategies 1-4."""

from repro.transform.emptyrel import EmptyRangeAdaptation, adapt_formula, adapt_selection
from repro.transform.normalform import (
    StandardForm,
    to_disjunctive_normal_form,
    to_negation_normal_form,
    to_prenex_normal_form,
    to_standard_form,
)
from repro.transform.pipeline import (
    QueryPlan,
    TraceStep,
    TransformationTrace,
    prepare_query,
)
from repro.transform.quantifier_pushdown import (
    DerivedPredicate,
    PushdownResult,
    PushdownStep,
    conjunction_literals,
    plan_pushdowns,
)
from repro.transform.range_extension import RangeExtensionResult, extend_ranges
from repro.transform.rewriter import (
    conjoin,
    disjoin,
    fresh_variable,
    map_formula,
    rename_variable,
    simplify,
)

__all__ = [
    "DerivedPredicate",
    "EmptyRangeAdaptation",
    "QueryPlan",
    "PushdownResult",
    "PushdownStep",
    "RangeExtensionResult",
    "StandardForm",
    "TraceStep",
    "TransformationTrace",
    "adapt_formula",
    "adapt_selection",
    "conjoin",
    "conjunction_literals",
    "disjoin",
    "extend_ranges",
    "fresh_variable",
    "map_formula",
    "plan_pushdowns",
    "prepare_query",
    "rename_variable",
    "simplify",
    "to_disjunctive_normal_form",
    "to_negation_normal_form",
    "to_prenex_normal_form",
    "to_standard_form",
]
