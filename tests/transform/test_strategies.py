"""Unit tests for Strategy 3 (extended ranges), Strategy 4 (collection-phase
quantifiers) and the transformation pipeline — reproducing the paper's
Examples 4.4-4.7 at the structural level.  Conjunction separation is covered
with Lemma 1 in ``test_lemma1_and_emptyrel.py``."""

import pytest

from repro.calculus import builder as q
from repro.calculus.ast import ALL, BoolConst, Comparison, SOME
from repro.config import StrategyOptions
from repro.errors import TransformError
from repro.transform.normalform import to_standard_form
from repro.transform.pipeline import prepare_query
from repro.transform.quantifier_pushdown import DerivedPredicate, plan_pushdowns
from repro.transform.range_extension import extend_ranges
from repro.calculus.typecheck import TypeChecker
from repro.workloads.queries import example_21
from repro.workloads.university import figure1_database


@pytest.fixture
def resolved_running_query(figure1):
    return TypeChecker.for_database(figure1).resolve(example_21())


class TestRangeExtension:
    """Example 4.5: extensions for e, p and c; one conjunction disappears."""

    def test_example_45_extensions(self, resolved_running_query):
        form = to_standard_form(resolved_running_query)
        result = extend_ranges(form)
        assert result.changed
        assert set(result.extensions) == {"e", "p", "c"}
        assert result.removed_conjunctions == 1
        assert len(result.standard_form.conjunctions) == 2

    def test_example_45_free_variable_range(self, resolved_running_query):
        result = extend_ranges(to_standard_form(resolved_running_query))
        binding = result.standard_form.selection.bindings[0]
        assert binding.var == "e"
        assert binding.range.is_extended()

    def test_example_45_universal_range_negates_the_disjunct(self, resolved_running_query):
        result = extend_ranges(to_standard_form(resolved_running_query))
        p_spec = next(s for s in result.standard_form.prefix if s.var == "p")
        assert p_spec.range.is_extended()
        restriction = p_spec.range.restriction
        assert isinstance(restriction, Comparison)
        assert restriction.op == "="          # pyear <> 1977 negated to pyear = 1977

    def test_timetable_range_is_not_extended(self, resolved_running_query):
        result = extend_ranges(to_standard_form(resolved_running_query))
        t_spec = next(s for s in result.standard_form.prefix if s.var == "t")
        assert not t_spec.range.is_extended()

    def test_no_extension_for_purely_dyadic_query(self, figure1):
        selection = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.some("t", "timetable", q.eq(("t", "tenr"), ("e", "enr"))),
        )
        form = to_standard_form(TypeChecker.for_database(figure1).resolve(selection))
        assert not extend_ranges(form).changed

    def test_universal_multi_term_disjunct_needs_general_mode(self, figure1):
        selection = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.all_(
                "p",
                "papers",
                q.or_(
                    q.and_(q.ne(("p", "pyear"), 1977), q.gt(("p", "penr"), 3)),
                    q.ne(("p", "penr"), ("e", "enr")),
                ),
            ),
        )
        form = to_standard_form(TypeChecker.for_database(figure1).resolve(selection))
        conservative = extend_ranges(form, general_extensions=False)
        general = extend_ranges(form, general_extensions=True)
        assert "p" not in conservative.extensions
        assert "p" in general.extensions

    def test_all_disjuncts_moved_leaves_false_matrix(self, figure1):
        selection = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.all_("p", "papers", q.ne(("p", "pyear"), 1977)),
        )
        form = to_standard_form(TypeChecker.for_database(figure1).resolve(selection))
        result = extend_ranges(form)
        assert result.changed
        assert result.standard_form.matrix == BoolConst(False)


class TestQuantifierPushdown:
    """Examples 4.6 / 4.7: the whole prefix dissolves into value lists."""

    def test_example_47_pushes_everything(self, figure1, resolved_running_query):
        prepared = prepare_query(
            resolved_running_query, figure1, StrategyOptions(), resolve=False
        )
        assert prepared.prefix == ()
        derived = prepared.derived_predicates()
        assert len(derived) == 3
        assert {p.inner_var for p in derived} == {"c", "t", "p"}
        # p's pushdown retains its universal quantifier (the paper's extension
        # of the semi-join technique to ALL).
        p_pred = next(p for p in derived if p.inner_var == "p")
        assert p_pred.quantifier == ALL
        assert p_pred.outer_var == "e"

    def test_example_46_without_range_extension_p_is_not_pushable(
        self, figure1, resolved_running_query
    ):
        """Example 4.6: in the plain standard form p occurs in two conjunctions."""
        prepared = prepare_query(
            resolved_running_query,
            figure1,
            StrategyOptions.only(collection_phase_quantifiers=True),
            resolve=False,
        )
        remaining = [spec.var for spec in prepared.prefix]
        assert "p" in remaining

    def test_swapping_is_recorded(self, figure1, resolved_running_query):
        prepared = prepare_query(
            resolved_running_query, figure1, StrategyOptions(), resolve=False
        )
        # c can only become innermost by swapping with t (both existential).
        trace_text = prepared.trace.describe()
        assert "swapped" in trace_text

    def test_universal_in_two_conjunctions_is_not_pushed(self):
        e_term = q.eq(("e", "estatus"), "professor")
        conj1 = (e_term, q.ne(("p", "pyear"), 1977))
        conj2 = (e_term, q.ne(("p", "penr"), ("e", "enr")))
        prefix = to_standard_form(example_21()).prefix[:1]  # ALL p
        result = plan_pushdowns(prefix, (conj1, conj2))
        assert not result.changed

    def test_pushdown_shortcuts(self, figure1):
        seniority = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.all_("p", "papers", q.lt(("e", "enr"), ("p", "penr"))),
        )
        prepared = prepare_query(
            TypeChecker.for_database(figure1).resolve(seniority),
            figure1,
            StrategyOptions(),
            resolve=False,
        )
        derived = prepared.derived_predicates()
        assert len(derived) == 1
        assert derived[0].shortcut() == "minmax"

    def test_single_value_shortcut_detection(self):
        predicate = DerivedPredicate(
            outer_var="e",
            quantifier=ALL,
            inner_var="p",
            inner_range=q.range_("papers"),
            connecting=(q.eq(("e", "enr"), ("p", "penr")),),
        )
        assert predicate.shortcut() == "single-value"

    def test_no_shortcut_for_multiple_connecting_terms(self):
        predicate = DerivedPredicate(
            outer_var="e",
            quantifier=SOME,
            inner_var="t",
            inner_range=q.range_("timetable"),
            connecting=(
                q.eq(("e", "enr"), ("t", "tenr")),
                q.eq(("e", "enr"), ("t", "tcnr")),
            ),
        )
        assert predicate.shortcut() is None

    def test_variable_connecting_to_two_outer_variables_is_not_pushed(self):
        conj = (
            q.eq(("t", "tenr"), ("e", "enr")),
            q.eq(("t", "tcnr"), ("c", "cnr")),
        )
        from repro.calculus.analysis import QuantifierSpec

        prefix = (QuantifierSpec(SOME, "t", q.range_("timetable")),)
        result = plan_pushdowns(prefix, (conj,))
        assert not result.changed


class TestPipeline:
    def test_trace_lists_applied_steps(self, figure1, resolved_running_query):
        prepared = prepare_query(
            resolved_running_query, figure1, StrategyOptions(), resolve=False
        )
        names = prepared.trace.names()
        assert "standard form" in names
        assert "extended ranges (S3)" in names
        assert "collection-phase quantifiers (S4)" in names

    def test_disabled_strategies_do_not_appear_in_trace(self, figure1, resolved_running_query):
        prepared = prepare_query(
            resolved_running_query, figure1, StrategyOptions.none(), resolve=False
        )
        names = prepared.trace.names()
        assert "extended ranges (S3)" not in names
        assert "collection-phase quantifiers (S4)" not in names
        assert len(prepared.prefix) == 3

    def test_variables_order_free_then_prefix(self, figure1, resolved_running_query):
        prepared = prepare_query(
            resolved_running_query, figure1, StrategyOptions.none(), resolve=False
        )
        assert prepared.variables == ("e", "p", "c", "t")
        assert prepared.range_of("p").relation == "papers"
        with pytest.raises(TransformError):
            prepared.range_of("z")

    def test_empty_relation_adaptation_in_pipeline(self, resolved_running_query):
        database = figure1_database()
        database.relation("papers").clear()
        prepared = prepare_query(
            resolved_running_query, database, StrategyOptions(), resolve=False
        )
        assert "empty-relation adaptation" in prepared.trace.names()

    def test_constant_matrix_query(self, figure1):
        # With Strategy 3, the single universal disjunct moves into p's range
        # and the matrix collapses to the constant FALSE.
        selection = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.all_("p", "papers", q.ne(("p", "pyear"), 1977)),
        )
        prepared = prepare_query(selection, figure1, StrategyOptions())
        assert prepared.constant is False

    def test_constant_true_matrix_from_empty_relation(self, figure1):
        figure1.relation("papers").clear()
        selection = q.selection(
            [("e", "ename")],
            [("e", "employees")],
            q.all_("p", "papers", q.ne(("p", "pyear"), 1977)),
        )
        prepared = prepare_query(selection, figure1, StrategyOptions())
        assert prepared.constant is True
