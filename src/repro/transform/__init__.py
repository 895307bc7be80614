"""Logic-level query transformations: standard form, Lemma 1, Strategies 1-4."""

from repro.transform.emptyrel import EmptyRangeAdaptation, adapt_formula, adapt_selection
from repro.transform.lemma1 import (
    Lemma1Result,
    distribute_into_quantifier,
    pull_quantifier_out,
    rule_name,
)
from repro.transform.normalform import (
    StandardForm,
    standardize_selection,
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
from repro.transform.separation import SeparationResult, can_separate, separate_conjunctions

__all__ = [
    "DerivedPredicate",
    "EmptyRangeAdaptation",
    "Lemma1Result",
    "QueryPlan",
    "PushdownResult",
    "PushdownStep",
    "RangeExtensionResult",
    "SeparationResult",
    "StandardForm",
    "TraceStep",
    "TransformationTrace",
    "adapt_formula",
    "adapt_selection",
    "can_separate",
    "conjoin",
    "conjunction_literals",
    "disjoin",
    "distribute_into_quantifier",
    "extend_ranges",
    "fresh_variable",
    "map_formula",
    "plan_pushdowns",
    "prepare_query",
    "pull_quantifier_out",
    "rename_variable",
    "rule_name",
    "separate_conjunctions",
    "simplify",
    "standardize_selection",
    "to_disjunctive_normal_form",
    "to_negation_normal_form",
    "to_prenex_normal_form",
    "to_standard_form",
]
