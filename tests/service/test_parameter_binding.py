"""Late binding rebuilds only what holds a parameter.

``bind_plan`` used to substitute the whole compiled plan: the selection, every
binding and quantifier range, every matrix literal and derived predicate.  It
now rebuilds only the parts that hold a parameter, shares the rest with the
shared plan, and derives the bound plan's ``selection`` on first read.  This
module keeps that whole-plan substitution as the reference and checks, for
every parameterized library query, literal texts whose constants are lifted
and a text with both, under several strategy configurations:

* the bound plan's selection, bindings, prefix, matrix and trace equal the
  reference's;
* every parameter-free part is the shared plan's own object, and every part
  that held a parameter holds none;
* the bound plan's rows equal the naive interpreter's on the reference
  selection, and no execution derives its selection.

CI also runs this module under two fixed ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, StrategyOptions
from repro.calculus.analysis import QuantifierSpec
from repro.calculus.ast import Comparison, Param, VariableBinding
from repro.engine.naive import evaluate_selection_naive
from repro.service import QueryService, bind_plan, bind_selection
from repro.service.binding import _LiteralTrace, _bind_formula, _bind_range
from repro.transform.pipeline import QueryPlan
from repro.transform.quantifier_pushdown import DerivedPredicate
from repro.workloads.bibliography import BibliographyProfile, build_bibliography_database
from repro.workloads.bibliography.queries import bibliography_parameterized_queries
from repro.workloads.queries import (
    RUNNING_QUERY_PARAM_TEXT,
    inline_parameters,
    parameterized_queries,
)
from repro.workloads.university import figure1_database

_DATABASES = {}


def _database(name: str):
    if name not in _DATABASES:
        _DATABASES[name] = (
            figure1_database()
            if name == "university"
            else build_bibliography_database(
                profile=BibliographyProfile(authors=12, venues=3, papers=8, out_degrees=(2, 3))
            )
        )
    return _DATABASES[name]


CASES = [
    ("university", text, binding)
    for text, bindings in parameterized_queries().values()
    for binding in bindings
]
CASES += [
    ("bibliography", text, binding)
    for text, bindings in bibliography_parameterized_queries().values()
    for binding in bindings
]
# Literal texts: their constants are lifted to positional parameters.
CASES += [
    ("university", inline_parameters(RUNNING_QUERY_PARAM_TEXT, binding), None)
    for binding in parameterized_queries()["running_query"][1]
]
CASES += [
    ("university", "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (e.enr <= 5)]", None),
    ("university", "[<p.ptitle> OF EACH p IN papers: (p.pyear = 1901)]", None),
    # A literal beside a ``$name``.
    ("university", "[<e.ename, e.enr> OF EACH e IN employees: (e.estatus = $status) AND (e.enr <= 6)]",
     {"status": "professor"}),
]

OPTIONS = (
    StrategyOptions(),
    StrategyOptions.none(),
    StrategyOptions.all_strategies(),
    StrategyOptions.only(extended_ranges=True),
    StrategyOptions.only(collection_phase_quantifiers=True),
)


def _rebuild_literal(literal, values):
    if isinstance(literal, Comparison):
        return _bind_formula(literal, values)
    if isinstance(literal, DerivedPredicate):
        return DerivedPredicate(
            outer_var=literal.outer_var,
            quantifier=literal.quantifier,
            inner_var=literal.inner_var,
            inner_range=_bind_range(literal.inner_range, values),
            connecting=tuple(_bind_formula(t, values) for t in literal.connecting),
            inner_monadic=tuple(_bind_formula(t, values) for t in literal.inner_monadic),
            inner_derived=tuple(_rebuild_literal(d, values) for d in literal.inner_derived),
        )
    return literal


def _whole_plan_substitution(plan: QueryPlan, values, positional) -> QueryPlan:
    """The reference: every structure of ``plan`` rebuilt with its parameters
    substituted, the selection included."""
    return QueryPlan(
        selection=bind_selection(plan.selection, values),
        bindings=tuple(
            VariableBinding(b.var, _bind_range(b.range, values)) for b in plan.bindings
        ),
        prefix=tuple(
            QuantifierSpec(s.kind, s.var, _bind_range(s.range, values)) for s in plan.prefix
        ),
        conjunctions=tuple(
            tuple(_rebuild_literal(literal, values) for literal in conjunction)
            for conjunction in plan.conjunctions
        ),
        options=plan.options,
        trace=_LiteralTrace(plan.trace, values, positional) if positional else plan.trace,
        constant=plan.constant,
    )


def _holds_param(node) -> bool:
    if isinstance(node, Param):
        return True
    if isinstance(node, tuple):
        return any(_holds_param(item) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return any(_holds_param(getattr(node, f.name)) for f in dataclasses.fields(node))
    return False


def _assert_shared_or_bound(old, new) -> None:
    """``new`` is ``old`` itself when ``old`` holds no parameter, and holds none."""
    if _holds_param(old):
        assert new is not old and not _holds_param(new)
    else:
        assert new is old


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), options=st.sampled_from(OPTIONS))
def test_parameter_only_binding_equals_the_whole_plan_substitution(case, options) -> None:
    name, text, binding = case
    database = _database(name)
    prepared = QueryService(database, options).prepare(text)
    shared, positional = prepared._plan, prepared._positional
    values = prepared._coerce_bindings(binding)
    bound = bind_plan(shared, values, positional)
    reference = _whole_plan_substitution(shared, values, positional)

    assert bound.bindings == reference.bindings
    assert bound.prefix == reference.prefix
    assert bound.conjunctions == reference.conjunctions
    assert bound.trace.steps == reference.trace.steps
    assert bound.constant == reference.constant
    for part in ("bindings", "prefix", "conjunctions"):
        _assert_shared_or_bound(getattr(shared, part), getattr(bound, part))
    for old, new in zip(shared.bindings + shared.prefix, bound.bindings + bound.prefix):
        _assert_shared_or_bound(old, new)
    for old_conjunction, new_conjunction in zip(shared.conjunctions, bound.conjunctions):
        for old, new in zip(old_conjunction, new_conjunction):
            _assert_shared_or_bound(old, new)
    assert bound.result_schema is shared.result_schema
    assert bound.selection_plan is shared.selection_plan
    assert bound.shape is shared.shape is shared.selection

    expected = evaluate_selection_naive(reference.selection, database)
    result = QueryEngine(database).execute_plan(bound).drain()
    assert result.relation == expected
    # An execution plans and reads without the bound selection (the phases
    # read the plan's shape); the Strategy 3 fallback re-plans from it.
    again = bind_plan(shared, values, positional)
    rerun = QueryEngine(database).execute_plan(again).drain()
    assert rerun.relation == expected
    if not rerun.used_strategy3_fallback:
        assert again._selection is None
    assert again.selection == bound.selection == reference.selection
