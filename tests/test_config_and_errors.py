"""Unit tests for the strategy options and the exception hierarchy."""

from dataclasses import fields

import pytest

from repro import errors
from repro.config import StrategyOptions


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
        assert not options.parallel_collection
        assert not options.one_step_nested
        assert not options.extended_ranges
        assert not options.collection_phase_quantifiers
        assert not options.use_index_paths
        assert not any(getattr(options, f.name) for f in fields(options))

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
