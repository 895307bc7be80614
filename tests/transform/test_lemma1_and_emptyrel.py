"""Lemma 1 and the runtime empty-relation adaptation (Example 2.2), and the
separate evaluation of existential conjunctions (end of Section 2).

Lemma 1 is applied by the compiler in two places: the adaptation
(:func:`repro.transform.emptyrel.adapt_selection`) removes quantifiers over
empty ranges, where rules 2 and 3 collapse, and the prenex conversion pulls
every remaining quantifier out under the non-empty form of all four rules.
The property below checks both, through the engine, on Figure 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculus import builder as q
from repro.calculus.ast import ALL, BoolConst, SOME
from repro.config import StrategyOptions
from repro.engine.evaluator import QueryEngine, execute_naive
from repro.service.binding import referenced_relations
from repro.transform.emptyrel import adapt_formula, adapt_selection
from repro.workloads.queries import example_21
from repro.workloads.university import figure1_database


A = q.eq(("e", "estatus"), "professor")
B = q.ne(("p", "pyear"), 1977)


def some_p():
    return q.some("p", "papers", B)


def all_p():
    return q.all_("p", "papers", B)


# -------------------------------------------------- Lemma 1 and separation, by property

#: ``A AND|OR SOME|ALL v IN r (B)``: the connective and quantifier of each rule.
RULES = {1: ("AND", SOME), 2: ("OR", SOME), 3: ("AND", ALL), 4: ("OR", ALL)}

#: Quantifier-free formulae over the free variable ``e`` only.
OUTER = (
    "(e.estatus = professor)",
    "((e.estatus <> student) AND (e.enr > 2))",
    "((e.enr <= 3) OR (e.estatus = professor))",
)

#: ``(relation, variable, B)``: bodies mentioning the quantified variable.
BODIES = (
    ("papers", "p", "(p.penr = e.enr)"),
    ("papers", "p", "(p.pyear = 1977)"),
    ("papers", "p", "(p.penr = e.enr) OR (p.pyear = 1977)"),
    ("papers", "p", "(p.penr = e.enr) AND (p.pyear <> 1977)"),
    ("timetable", "t", "(t.tenr = e.enr)"),
    ("timetable", "t", "(t.tenr = e.enr) OR (t.tday = monday)"),
    ("courses", "c", "(c.clevel = sophomore)"),
    ("courses", "c", "(c.cnr = e.enr) AND (c.clevel <> senior)"),
)


@pytest.fixture(scope="module")
def figure1_emptied():
    """Figure 1 as built (key ``None``) and with each quantified relation
    cleared, built once: the property's queries only read."""
    databases = {None: figure1_database()}
    for relation in {relation for relation, _, _ in BODIES}:
        databases[relation] = figure1_database()
        databases[relation].relation(relation).clear()
    return databases


def _query(formula: str) -> str:
    return f"[<e.ename> OF EACH e IN employees: {formula}]"


#: The unoptimised procedure, separation alone, and separation under every
#: default strategy (extended ranges kept in each sub-query's prefix, value
#: lists, the Strategy 3 fallback).
CONFIGURATIONS = {
    "none": StrategyOptions.none(),
    "separated": StrategyOptions.only(separate_existential_conjunctions=True),
    "all-separated": StrategyOptions().with_(separate_existential_conjunctions=True),
}


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("emptied", (False, True), ids=("non-empty", "emptied"))
@pytest.mark.parametrize("rule", sorted(RULES), ids=lambda rule: f"rule{rule}")
@settings(max_examples=20, deadline=None)
@given(outer=st.sampled_from(OUTER), body=st.sampled_from(BODIES))
def test_lemma1_and_separation_on_figure1(
    figure1_emptied, rule, emptied, configuration, outer, body
):
    options = CONFIGURATIONS[configuration]
    connective, kind = RULES[rule]
    relation, var, inner = body
    database = figure1_emptied[relation if emptied else None]
    text = _query(f"{outer} {connective} {kind} {var} IN {relation} (({inner}))")
    expected = execute_naive(database, text)

    # The lemma itself, on the ground-truth interpreter.
    if not emptied:
        moved_in = _query(f"{kind} {var} IN {relation} ({outer} {connective} ({inner}))")
        assert execute_naive(database, moved_in) == expected
    elif rule in (2, 3):
        assert execute_naive(database, _query(outer)) == expected
    else:  # AND SOME over [] is FALSE, OR ALL over [] is TRUE
        assert len(expected) == (0 if rule == 1 else len(database.relation("employees")))

    result = QueryEngine(database).run(text, options)
    assert result.relation == expected
    # Separation applies exactly when the prefix has no ALL; the Strategy 3
    # fallback re-plans and runs the query whole.
    plan = result.prepared
    separated = (
        options.separate_existential_conjunctions
        and not result.used_strategy3_fallback
        and plan.constant is None
        and all(spec.kind != ALL for spec in plan.prefix)
    )
    assert result.subqueries == (len(plan.conjunctions) if separated else 1)


# ------------------------------------------------------------------ the adaptation

class TestEmptyRangeAdaptation:
    def test_some_over_empty_range_becomes_false(self):
        adaptation = adapt_formula(some_p(), relation_is_empty=lambda name: True)
        assert adaptation.formula == BoolConst(False)
        assert adaptation.removed_quantifiers == ((SOME, "p", "papers"),)

    def test_all_over_empty_range_becomes_true(self):
        adaptation = adapt_formula(all_p(), relation_is_empty=lambda name: True)
        assert adaptation.formula == BoolConst(True)

    def test_enclosing_connectives_simplify(self):
        formula = q.and_(A, all_p())
        adaptation = adapt_formula(formula, relation_is_empty=lambda name: name == "papers")
        assert adaptation.formula == A

    def test_nothing_changes_when_ranges_are_non_empty(self):
        formula = q.and_(A, all_p())
        adaptation = adapt_formula(formula, relation_is_empty=lambda name: False)
        assert not adaptation.changed
        assert adaptation.formula == formula

    def test_example_22_adaptation(self):
        """With papers = [], the running query reduces to the professor test."""
        database = figure1_database()
        database.relation("papers").clear()
        selection = example_21()
        adapted, record = adapt_selection(selection, database)
        assert record.changed
        assert (ALL, "p", "papers") in record.removed_quantifiers
        # The remaining formula no longer mentions papers at all.
        assert "papers" not in referenced_relations(adapted)

    def test_adaptation_handles_extended_ranges(self):
        database = figure1_database()
        formula = q.some(
            "p",
            q.range_("papers", q.eq(("p", "pyear"), 1900)),  # matches nothing
            q.ne(("p", "penr"), 1),
        )
        # A OR (SOME p IN empty-extended-range ...) collapses to A (Lemma 1 rule 2).
        selection = q.selection([("e", "ename")], [("e", "employees")], q.or_(A, formula))
        adapted, record = adapt_selection(selection, database)
        assert record.changed
        assert adapted.formula == A
