"""Unit tests for NNF / prenex / DNF and the standard form (Example 2.2)."""

from repro.calculus import builder as q
from repro.calculus.analysis import (
    conjunctions_of,
    free_variables_of,
    is_dnf_matrix,
    is_quantifier_free,
    literals_of,
    quantifier_prefix,
)
from repro.calculus.ast import ALL, Comparison, Not, Or, SOME, TRUE
from repro.transform.normalform import (
    to_disjunctive_normal_form,
    to_negation_normal_form,
    to_prenex_normal_form,
    to_standard_form,
)
from repro.workloads.queries import example_21


class TestNegationNormalForm:
    def test_negated_comparison_flips_operator(self):
        formula = q.not_(q.eq(("e", "enr"), 1))
        assert to_negation_normal_form(formula) == q.ne(("e", "enr"), 1)

    def test_double_negation(self):
        formula = q.not_(q.not_(q.lt(("e", "enr"), 5)))
        assert to_negation_normal_form(formula) == q.lt(("e", "enr"), 5)

    def test_de_morgan(self):
        a, b = q.eq(("e", "enr"), 1), q.eq(("e", "enr"), 2)
        nnf = to_negation_normal_form(q.not_(q.and_(a, b)))
        assert isinstance(nnf, Or)
        assert nnf.operands == (q.ne(("e", "enr"), 1), q.ne(("e", "enr"), 2))

    def test_negated_quantifiers_dualise(self):
        body = q.eq(("p", "pyear"), 1977)
        nnf = to_negation_normal_form(q.not_(q.some("p", "papers", body)))
        assert nnf.kind == ALL
        assert nnf.body == q.ne(("p", "pyear"), 1977)
        nnf = to_negation_normal_form(q.not_(q.all_("p", "papers", body)))
        assert nnf.kind == SOME

    def test_negated_constants(self):
        assert to_negation_normal_form(q.not_(TRUE)).value is False

    def test_result_contains_no_not_nodes(self):
        formula = q.not_(
            q.and_(
                q.or_(q.eq(("e", "enr"), 1), q.not_(q.eq(("e", "enr"), 2))),
                q.some("p", "papers", q.not_(q.eq(("p", "pyear"), 1977))),
            )
        )
        nnf = to_negation_normal_form(formula)
        assert not any(isinstance(node, Not) for node in nnf.walk())


class TestPrenexNormalForm:
    def test_quantifiers_are_pulled_out(self):
        formula = q.and_(
            q.eq(("e", "estatus"), "professor"),
            q.some("t", "timetable", q.eq(("t", "tenr"), ("e", "enr"))),
        )
        prenex = to_prenex_normal_form(formula)
        assert is_quantifier_free(quantifier_prefix(prenex)[1])
        assert prenex.kind == SOME

    def test_example_22_prefix_order(self):
        prenex = to_prenex_normal_form(example_21().formula)
        assert is_quantifier_free(quantifier_prefix(prenex)[1])
        kinds = []
        node = prenex
        while hasattr(node, "kind") and node.kind in (SOME, ALL):
            kinds.append((node.kind, node.var))
            node = node.body
        assert kinds == [(ALL, "p"), (SOME, "c"), (SOME, "t")]

    def test_colliding_bound_variables_are_renamed_apart(self):
        formula = q.and_(
            q.some("x", "r", q.eq(("x", "a"), 1)),
            q.some("x", "s", q.eq(("x", "c"), 2)),
        )
        prenex = to_prenex_normal_form(formula)
        assert prenex.var != prenex.body.var

    def test_bound_variable_colliding_with_free_variable_is_renamed(self):
        formula = q.and_(
            q.eq(("x", "a"), 1),
            q.some("x", "r", q.eq(("x", "a"), 2)),
        )
        prenex = to_prenex_normal_form(formula)
        assert prenex.var != "x"
        assert "x" in free_variables_of(prenex)


class TestDisjunctiveNormalForm:
    def test_distributes_and_over_or(self):
        a, b, c = q.eq(("x", "f"), 1), q.eq(("x", "f"), 2), q.eq(("x", "f"), 3)
        dnf = to_disjunctive_normal_form(q.and_(a, q.or_(b, c)))
        assert is_dnf_matrix(dnf)
        assert len(conjunctions_of(dnf)) == 2

    def test_true_short_circuits(self):
        a = q.eq(("x", "f"), 1)
        assert to_disjunctive_normal_form(q.or_(a, TRUE)) == TRUE

    def test_idempotent(self):
        a, b, c = q.eq(("x", "f"), 1), q.eq(("x", "f"), 2), q.eq(("x", "f"), 3)
        dnf = to_disjunctive_normal_form(q.and_(q.or_(a, b), c))
        assert to_disjunctive_normal_form(dnf) == dnf


class TestStandardForm:
    def test_example_22_structure(self):
        """The running query's standard form: ALL p SOME c SOME t, 3 conjunctions."""
        form = to_standard_form(example_21())
        assert [(s.kind, s.var) for s in form.prefix] == [
            (ALL, "p"),
            (SOME, "c"),
            (SOME, "t"),
        ]
        assert len(form.conjunctions) == 3
        assert is_dnf_matrix(form.matrix)
        # Every conjunction carries the professor test, as printed in Example 2.2.
        professor = q.eq(("e", "estatus"), "professor")
        for conjunction in form.conjunctions:
            assert professor in literals_of(conjunction)

    def test_to_formula_round_trips_prefix(self):
        form = to_standard_form(example_21())
        rebuilt = form.to_formula()
        assert is_quantifier_free(quantifier_prefix(rebuilt)[1])
        assert to_standard_form(form.to_selection()).matrix == form.matrix

    def test_quantifier_free_query(self):
        selection = q.selection(
            [("e", "ename")], [("e", "employees")], q.eq(("e", "estatus"), "professor")
        )
        form = to_standard_form(selection)
        assert form.prefix == ()
        assert isinstance(form.matrix, Comparison)
