"""Unit tests for formula analysis (free variables, ranges, prenex/DNF queries)."""

import pytest

from repro.calculus import builder as q
from repro.calculus.analysis import (
    conjunctions_of,
    free_variables_of,
    is_dnf_matrix,
    is_quantifier_free,
    literals_of,
    quantifier_prefix,
    range_relations,
)
from repro.calculus.ast import TRUE
from repro.transform.normalform import to_standard_form
from repro.workloads.queries import example_21


@pytest.fixture
def running_query():
    return example_21()


class TestVariableQueries:
    def test_free_variables_of_running_query(self, running_query):
        assert free_variables_of(running_query.formula) == {"e"}

    def test_standard_form_binds_the_quantified_variables(self, running_query):
        prefix = to_standard_form(running_query).prefix
        assert [spec.var for spec in prefix] == ["p", "c", "t"]

    def test_free_variables_respect_quantifier_scope(self):
        formula = q.some("x", "r", q.eq(("x", "a"), ("y", "b")))
        assert free_variables_of(formula) == {"y"}

    def test_free_variables_include_range_restrictions(self):
        formula = q.some(
            "p", q.range_("papers", q.eq(("p", "penr"), ("e", "enr"))), TRUE
        )
        assert free_variables_of(formula) == {"e"}


class TestRangeRelations:
    def test_plain_range(self):
        assert range_relations(q.range_("papers")) == ["papers"]

    def test_quantifiers_in_the_restriction_follow_in_source_order(self):
        restriction = q.some(
            "t",
            q.range_("timetable", q.some("p", "papers", q.eq(("p", "penr"), ("t", "tenr")))),
            q.eq(("t", "tcnr"), ("c", "cnr")),
        )
        assert range_relations(q.range_("courses", restriction)) == [
            "courses", "timetable", "papers"
        ]


class TestPrenexQueries:
    def test_running_query_is_not_prenex(self, running_query):
        prefix, rest = quantifier_prefix(running_query.formula)
        assert prefix == []
        assert not is_quantifier_free(rest)

    def test_quantifier_prefix_of_prenex_formula(self):
        formula = q.all_("p", "papers", q.some("c", "courses", q.eq(("p", "penr"), ("c", "cnr"))))
        prefix, matrix = quantifier_prefix(formula)
        assert [(s.kind, s.var) for s in prefix] == [("ALL", "p"), ("SOME", "c")]
        assert is_quantifier_free(matrix)


class TestDnfQueries:
    def make_matrix(self):
        a = q.eq(("e", "estatus"), "professor")
        b = q.ne(("p", "pyear"), 1977)
        c = q.eq(("t", "tenr"), ("e", "enr"))
        return q.or_(q.and_(a, b), q.and_(a, c)), (a, b, c)

    def test_conjunctions_and_literals(self):
        matrix, (a, b, c) = self.make_matrix()
        assert len(conjunctions_of(matrix)) == 2
        assert literals_of(conjunctions_of(matrix)[0]) == [a, b]

    def test_is_dnf_matrix(self):
        matrix, _ = self.make_matrix()
        assert is_dnf_matrix(matrix)
        not_dnf = q.and_(q.or_(q.eq(("e", "enr"), 1), q.eq(("e", "enr"), 2)), q.eq(("e", "enr"), 3))
        assert not is_dnf_matrix(not_dnf)

    def test_quantified_matrix_is_not_dnf(self):
        assert not is_dnf_matrix(q.some("p", "papers", TRUE))

    def test_single_conjunction_matrix(self):
        single = q.and_(q.eq(("e", "enr"), 1), q.eq(("e", "enr"), 2))
        assert conjunctions_of(single) == [single]
        assert is_dnf_matrix(single)
