"""Parameter collection, validation and substitution."""

import pytest

from repro.calculus.ast import Comparison, Const, Param
from repro.calculus.typecheck import resolve_selection
from repro.config import StrategyOptions
from repro.engine.naive import evaluate_selection_naive
from repro.errors import BindingError, TypeCheckError
from repro.lang.parser import parse_selection
from repro.service import bind_plan, bind_selection, check_bindings, collect_parameters
from repro.service.binding import referenced_relations
from repro.transform.pipeline import prepare_query
from repro.types.scalar import EnumValue
from repro.workloads.queries import example_21

PARAM_TEXT = """
[<e.ename> OF EACH e IN employees:
    (e.estatus = $status)
    AND ALL p IN papers ((p.pyear <> $year) OR (e.enr <> p.penr))]
"""


def resolved(figure1):
    return resolve_selection(parse_selection(PARAM_TEXT), figure1)


class TestCollectParameters:
    def test_finds_every_parameter(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        assert sorted(parameters) == ["status", "year"]

    def test_resolution_attaches_scalar_types(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        assert parameters["status"].type.name == "statustype"
        assert parameters["year"].type.name == "yeartype"

    def test_unresolved_selection_has_untyped_parameters(self):
        parameters = collect_parameters(parse_selection(PARAM_TEXT))
        assert parameters["status"].type is None

    def test_plan_collection_covers_prefix_and_derived_predicates(self, figure1):
        plan = prepare_query(resolved(figure1), figure1, StrategyOptions.all_strategies())
        assert sorted(collect_parameters(plan)) == ["status", "year"]

    def test_plan_collection_without_transform_strategies(self, figure1):
        plan = prepare_query(resolved(figure1), figure1, StrategyOptions.none())
        assert sorted(collect_parameters(plan)) == ["status", "year"]


class TestReferencedRelations:
    def test_running_query_reads_all_four_relations(self):
        assert referenced_relations(example_21()) == {
            "employees", "papers", "courses", "timetable"
        }

    def test_quantifiers_inside_a_restricted_range_count(self):
        # ``timetable`` is quantified only inside ``c``'s range restriction.
        selection = parse_selection(
            "[<e.ename> OF EACH e IN employees: SOME c IN [EACH c2 IN courses: "
            "SOME t IN timetable ((t.tcnr = c2.cnr))] ((c.cnr = 1))]"
        )
        assert referenced_relations(selection) == {"employees", "courses", "timetable"}

    def test_free_range_restrictions_count(self):
        selection = parse_selection(
            "[<e.ename> OF EACH e IN [EACH e2 IN employees: "
            "SOME p IN papers ((p.penr = e2.enr))]: TRUE]"
        )
        assert referenced_relations(selection) == {"employees", "papers"}


class TestCheckBindings:
    def test_coerces_through_the_resolved_type(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        coerced = check_bindings(parameters, {"status": "professor", "year": 1977})
        assert isinstance(coerced["status"], EnumValue)
        assert coerced["year"] == 1977

    def test_missing_parameter(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        with pytest.raises(BindingError, match=r"\$year"):
            check_bindings(parameters, {"status": "professor"})

    def test_unknown_parameter(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        with pytest.raises(BindingError, match=r"\$typo"):
            check_bindings(
                parameters, {"status": "professor", "year": 1977, "typo": 1}
            )

    def test_value_outside_the_scalar_type(self, figure1):
        parameters = collect_parameters(resolved(figure1))
        with pytest.raises(BindingError, match="not a value"):
            check_bindings(parameters, {"status": "janitor", "year": 1977})


class TestSubstitution:
    def test_bound_selection_evaluates_like_a_literal_query(self, figure1):
        selection = resolved(figure1)
        parameters = collect_parameters(selection)
        values = check_bindings(parameters, {"status": "professor", "year": 1977})
        bound = bind_selection(selection, values)
        literal = resolve_selection(
            parse_selection(PARAM_TEXT.replace("$status", "professor").replace("$year", "1977")),
            figure1,
        )
        assert evaluate_selection_naive(bound, figure1) == evaluate_selection_naive(
            literal, figure1
        )

    def test_bound_selection_contains_no_parameters(self, figure1):
        selection = resolved(figure1)
        values = check_bindings(
            collect_parameters(selection), {"status": "professor", "year": 1977}
        )
        assert collect_parameters(bind_selection(selection, values)) == {}

    def test_bound_plan_contains_no_parameters(self, figure1):
        selection = resolved(figure1)
        plan = prepare_query(selection, figure1, StrategyOptions.all_strategies())
        values = check_bindings(
            collect_parameters(plan), {"status": "student", "year": 1975}
        )
        assert collect_parameters(bind_plan(plan, values)) == {}

    def test_bound_plan_reuses_trace_and_options(self, figure1):
        plan = prepare_query(resolved(figure1), figure1, StrategyOptions.all_strategies())
        values = check_bindings(
            collect_parameters(plan), {"status": "professor", "year": 1977}
        )
        bound = bind_plan(plan, values)
        assert bound.trace is plan.trace
        assert bound.options is plan.options

    def test_unbound_occurrence_raises(self, figure1):
        selection = resolved(figure1)
        with pytest.raises(BindingError):
            bind_selection(selection, {"status": "professor"})


class TestParamTypechecking:
    def test_param_against_param_is_rejected(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: ($a = $b)]"
        with pytest.raises(TypeCheckError):
            resolve_selection(parse_selection(text), figure1)

    def test_param_against_constant_is_rejected(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: ($a = 3)]"
        with pytest.raises(TypeCheckError):
            resolve_selection(parse_selection(text), figure1)

    def test_params_compare_equal_regardless_of_type_annotation(self):
        comparison = Comparison(Param("x"), "=", Const(1))
        assert comparison.left == Param("x", None)

    def test_conflicting_types_for_one_parameter_are_rejected(self, figure1):
        """One bound value cannot satisfy incompatible component types — the
        resolver must fail like the literal-constant equivalent would."""
        text = "[<e.ename> OF EACH e IN employees: (e.enr = $x) AND (e.ename = $x)]"
        with pytest.raises(TypeCheckError, match=r"\$x"):
            resolve_selection(parse_selection(text), figure1)

    def test_compatible_repeated_parameter_is_accepted(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: (e.enr = $x) OR (e.enr > $x)]"
        parameters = collect_parameters(resolve_selection(parse_selection(text), figure1))
        assert sorted(parameters) == ["x"]
