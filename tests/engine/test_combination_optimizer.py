"""Unit tests for the combination-phase optimizer (ordering + semijoin reducer)."""

from __future__ import annotations

import pytest

from repro import QueryEngine, StrategyOptions, build_university_database, execute_naive
from repro.engine.collection import CollectionPhase
from repro.engine.combination import CombinationPhase
from repro.relational.statistics import estimate_join_cardinality, join_selectivity
from repro.transform.pipeline import prepare_query
from repro.workloads.queries import (
    OTHERS_PUBLISHED_1977_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
    others_published_1977,
    teaches_low_level,
)

#: Only Strategy 1 on, so the dyadic structures reach the combination phase.
BASE = StrategyOptions.only(parallel_collection=True)
LEGACY = BASE
ORDERED = BASE.with_(join_ordering=True)
OPTIMIZED = BASE.with_(join_ordering=True, semijoin_reduction=True)


@pytest.fixture(scope="module")
def scale4():
    return build_university_database(scale=4)


def _combination(database, selection, options):
    from repro.calculus.typecheck import TypeChecker

    resolved = TypeChecker.for_database(database).resolve(selection)
    prepared = prepare_query(resolved, database, options, resolve=False)
    database.reset_statistics()
    collection = CollectionPhase(prepared, database, options).run()
    combination = CombinationPhase(prepared, database, collection, options).run()
    for _ in combination.stream:  # the sizes and the peak are final once drained
        pass
    return combination


class TestSelectivityHints:
    def test_join_selectivity_is_one_over_max_distinct(self):
        assert join_selectivity(10, 40) == 1.0 / 40
        assert join_selectivity(0, 0) == 1.0  # guarded against empty inputs

    def test_estimate_join_cardinality(self):
        assert estimate_join_cardinality(10, 40, 10, 40) == pytest.approx(10.0)
        assert estimate_join_cardinality(0, 40, 0, 40) == 0.0


class TestJoinOrdering:
    def test_join_order_recorded_per_conjunction(self, scale4):
        combination = _combination(scale4, others_published_1977(), OPTIMIZED)
        assert combination.join_orders, "join order should be recorded"
        for order in combination.join_orders:
            assert order, "every evaluated conjunction records its join order"
            for description, size in order:
                assert isinstance(description, str) and size >= 0

    def test_ordered_start_is_smallest_structure(self, scale4):
        combination = _combination(scale4, others_published_1977(), ORDERED)
        for order in combination.join_orders:
            first_size = order[0][1]
            rest = [size for description, size in order[1:] if not description.startswith("range of")]
            assert all(first_size <= size for size in rest)

    def test_conjunction_indexes_keep_positions_of_dropped_conjunctions(self, figure1):
        """join_orders/reductions align with the prepared matrix, not densely."""
        from repro.calculus.typecheck import TypeChecker
        from repro.lang.parser import parse_selection

        selection = parse_selection(
            "[<e.ename> OF EACH e IN employees:"
            " (e.estatus = professor) OR (e.estatus = student)]"
        )
        resolved = TypeChecker.for_database(figure1).resolve(selection)
        prepared = prepare_query(resolved, figure1, OPTIMIZED, resolve=False)
        assert len(prepared.conjunctions) == 2
        collection = CollectionPhase(prepared, figure1, OPTIMIZED).run()
        collection.conjunctions[0] = None  # simulate a dropped conjunction
        combination = CombinationPhase(prepared, figure1, collection, OPTIMIZED).run()
        assert combination.conjunction_indexes == [1]
        assert len(combination.join_orders) == 1

    def test_legacy_flag_preserves_textual_order(self, scale4):
        legacy = _combination(scale4, others_published_1977(), LEGACY)
        # The first structure of the conjunction in textual order is the
        # professor single list — legacy must start there regardless of size.
        assert any("single list" in order[0][0] for order in legacy.join_orders)


class TestSemijoinReduction:
    def test_reducer_shrinks_the_inequality_join(self, scale4):
        combination = _combination(scale4, others_published_1977(), OPTIMIZED)
        reduced = [r for per_conj in combination.reductions for r in per_conj if r[1] > r[2]]
        assert reduced, "the reducer should shrink at least one structure"
        indirect = [r for r in reduced if "indirect join" in r[0]]
        assert indirect, "the large inequality indirect join should shrink"

    def test_reduction_lowers_peak_tuples(self, scale4):
        legacy = _combination(scale4, others_published_1977(), LEGACY)
        optimized = _combination(scale4, others_published_1977(), OPTIMIZED)
        assert optimized.peak_tuples < legacy.peak_tuples

    def test_reductions_recorded_in_statistics(self, scale4):
        _combination(scale4, others_published_1977(), OPTIMIZED)
        stats = scale4.statistics
        assert stats.reduced_tuples > 0
        assert stats.reductions > 0
        snapshot = stats.as_dict()
        assert snapshot["reduced_tuples"] == stats.reduced_tuples
        assert snapshot["reductions"] == stats.reductions

    def test_no_reduction_counters_when_disabled(self, scale4):
        _combination(scale4, others_published_1977(), LEGACY)
        assert scale4.statistics.reduced_tuples == 0


class TestKernelAccounting:
    """Satellite: the algebra kernels feed the shared counters."""

    def test_combination_comparisons_and_intermediates_tracked(self, figure1):
        engine = QueryEngine(figure1, BASE)
        result = engine.run(TEACHES_LOW_LEVEL_TEXT)
        assert result.statistics["comparisons"] > 0
        # Every join step, union, projection and division reports its result
        # size, so the total is at least the recorded peak.
        assert result.statistics["intermediate_tuples"] >= result.combination.peak_tuples

    def test_peak_counts_intrajoin_intermediates(self, scale4):
        # Legacy order on the showcase query builds an intermediate larger
        # than the final conjunction relation; peak_tuples must see it.
        legacy = _combination(scale4, others_published_1977(), LEGACY)
        assert legacy.peak_tuples > max(legacy.conjunction_sizes)


class TestExplainAnalyze:
    def test_explain_analyze_shows_join_order_and_reductions(self, scale4):
        engine = QueryEngine(scale4, OPTIMIZED)
        report = engine.explain(OTHERS_PUBLISHED_1977_TEXT, analyze=True)
        assert "combination phase:" in report
        assert "join order:" in report
        assert "start with" in report
        assert "semijoin reductions:" in report
        assert "->" in report

    def test_explain_without_analyze_is_static(self, scale4):
        engine = QueryEngine(scale4, OPTIMIZED)
        report = engine.explain(OTHERS_PUBLISHED_1977_TEXT)
        assert "combination phase:" not in report

    def test_results_identical_with_and_without_optimizer(self, scale4):
        expected = execute_naive(scale4, TEACHES_LOW_LEVEL_TEXT)
        for options in (LEGACY, ORDERED, OPTIMIZED):
            assert QueryEngine(scale4, options).run(TEACHES_LOW_LEVEL_TEXT).relation == expected

    def test_separated_execution_reports_every_conjunction(self, figure1):
        from repro.workloads.queries import EXAMPLE_21_TEXT

        engine = QueryEngine(figure1, StrategyOptions(separate_existential_conjunctions=True))
        result = engine.run(EXAMPLE_21_TEXT)
        assert result.subqueries > 1
        # One combination report entry per evaluated conjunction, numbered by
        # matrix position (not restarting at 0 for every sub-query).
        assert result.combination is not None
        assert len(result.combination.join_orders) == result.subqueries
        assert result.combination.conjunction_indexes == list(range(result.subqueries))
        report = engine.explain(EXAMPLE_21_TEXT, analyze=True)
        for number in range(1, result.subqueries + 1):
            assert f"conjunction {number} join order:" in report

    def test_describe_names_new_flags(self):
        text = StrategyOptions.all_strategies().describe()
        assert "cost-ordered joins" in text
        assert "semijoin reduction" in text
        assert StrategyOptions.none().describe() == "no strategies"
