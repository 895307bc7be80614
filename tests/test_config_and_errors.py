"""Unit tests for the strategy options and the exception hierarchy."""

from dataclasses import fields

import pytest

from repro import connect, errors, execute_naive
from repro.config import ServiceOptions, StrategyOptions


class TestStrategyOptions:
    def test_defaults_enable_all_paper_strategies(self):
        options = StrategyOptions()
        assert options.parallel_collection
        assert options.one_step_nested
        assert options.extended_ranges
        assert options.collection_phase_quantifiers
        assert not options.general_range_extensions
        assert not options.separate_existential_conjunctions

    def test_none_disables_everything(self):
        options = StrategyOptions.none()
        switches = [f.name for f in fields(options) if f.name not in ("plan", "join_order")]
        assert len(switches) == 8
        assert not any(getattr(options, name) for name in switches)
        assert (options.plan, options.join_order) == ("literal", "written")

    def test_defaults_are_the_streamed_plan_and_the_histogram_join_order(self):
        options = StrategyOptions()
        assert (options.plan, options.join_order) == ("streamed", "histogram")

    def test_only_enables_selected_strategies(self):
        options = StrategyOptions.only(extended_ranges=True)
        assert options.extended_ranges
        assert not options.parallel_collection

    def test_with_creates_a_modified_copy(self):
        base = StrategyOptions.all_strategies()
        changed = base.with_(collection_phase_quantifiers=False)
        assert base.collection_phase_quantifiers
        assert not changed.collection_phase_quantifiers

    def test_options_are_immutable(self):
        with pytest.raises(Exception):
            StrategyOptions().parallel_collection = False

    def test_describe_lists_enabled_strategies(self):
        assert "S3 extended ranges" in StrategyOptions.all_strategies().describe()
        assert StrategyOptions.none().describe() == "no strategies"

    def test_equality(self):
        assert StrategyOptions() == StrategyOptions()
        assert StrategyOptions.none() != StrategyOptions()

    @pytest.mark.parametrize("build, allowed", [
        (lambda: StrategyOptions(join_order="hist"), "'written', 'uniform', 'histogram'"),
        (lambda: StrategyOptions().with_(plan="stream"), "'streamed', 'literal'"),
        (lambda: StrategyOptions.only(join_order=True), "'written', 'uniform', 'histogram'"),
        (lambda: StrategyOptions(plan=False), "'streamed', 'literal'"),
    ], ids=["constructor", "with_", "only", "bool plan"])
    def test_a_policy_outside_its_values_is_refused(self, build, allowed):
        with pytest.raises(errors.PlanError, match=allowed):
            build()

    def test_a_bad_policy_never_reaches_the_engine(self, figure1):
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]"
        with pytest.raises(errors.PlanError, match="join_order"):
            connect(figure1, options=StrategyOptions(join_order="cost"))
        with connect(figure1) as connection:
            with pytest.raises(errors.PlanError, match="plan"):
                connection.session(options=StrategyOptions.none().with_(plan="pipeline"))
            assert len(connection.execute(text).fetchall()) == len(execute_naive(figure1, text))


class TestServiceOptions:
    @pytest.mark.parametrize(
        "name", ["plan_cache_capacity", "collection_cache_size", "busy_timeout"]
    )
    def test_a_negative_setting_is_refused_through_every_spelling(self, name):
        for build in (
            lambda: ServiceOptions(**{name: -3}),
            lambda: ServiceOptions().with_(**{name: -3}),
        ):
            with pytest.raises(errors.PlanError, match=f"{name} must be non-negative"):
                build()
        assert getattr(ServiceOptions(**{name: 0}), name) == 0

    def test_a_negative_setting_never_reaches_the_service(self, figure1):
        with pytest.raises(errors.PlanError, match="collection_cache_size"):
            connect(figure1, service_options=ServiceOptions(collection_cache_size=-3))


class TestErrorHierarchy:
    def test_all_errors_derive_from_pascalr_error(self):
        for name in errors.__all__:
            error_class = getattr(errors, name)
            assert issubclass(error_class, errors.PascalRError)

    def test_missing_element_is_also_a_key_error(self):
        assert issubclass(errors.MissingElementError, KeyError)

    def test_parse_error_carries_position(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_parse_error_without_position(self):
        error = errors.ParseError("bad token")
        assert error.line is None

    def test_subsystem_relationships(self):
        assert issubclass(errors.ScopeError, errors.CalculusError)
        assert issubclass(errors.SchemaError, errors.TypeSystemError)
        assert issubclass(errors.DuplicateKeyError, errors.RelationError)
        assert issubclass(errors.LexError, errors.ParseError)
