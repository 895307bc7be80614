"""Unit and property tests for the streaming operator pipeline.

The tentpole invariant is byte-identical results between the two plan
policies ``plan`` selects — the streamed plan and the literal
Section 3.3 procedure (the matrix in ``test_equivalence.py`` covers the full
configuration cross); this module
tests the pipeline machinery itself — the :class:`RowStream` protocol, the
streaming kernels, the short-circuit quantifier elimination, the live-tuple
accounting and the EXPLAIN annotations — plus a hypothesis property over
random workloads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryEngine, StrategyOptions, execute_naive
from repro.calculus.typecheck import TypeChecker
from repro.engine.collection import CollectionPhase
from repro.engine.combination import CombinationPhase
from repro.engine.construction import ConstructionPhase
from repro.engine.naive import evaluate_selection_naive
from repro.engine.stream import LiveTupleTracker, RowStream
from repro.errors import PascalRError, StreamError
from repro.relational.algebra import (
    stream_divide,
    stream_natural_join,
    stream_project,
    stream_semijoin,
    stream_union,
)
from repro.relational.relation import Relation
from repro.transform.pipeline import prepare_query
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema
from repro.workloads.generator import random_workload
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    NO_1977_PAPERS_TEXT,
    OTHERS_PUBLISHED_1977_TEXT,
    PUBLISHING_TEACHERS_TEXT,
)
from repro.workloads.university import build_university_database

#: Strategy 1 only, streamed — the configuration under which the combination
#: phase actually sees multi-structure conjunctions.
S1_STREAMED = StrategyOptions.only(
    parallel_collection=True,
    join_order="uniform",
    semijoin_reduction=True,
    plan="streamed",
)
S1_LITERAL = S1_STREAMED.with_(plan="literal")


def make(name: str, fields: list[str], rows: list[tuple]) -> Relation:
    schema = RelationSchema(name, [(f, INTEGER) for f in fields])
    relation = Relation(name, schema)
    for row in rows:
        relation.insert(dict(zip(fields, row)))
    return relation


# ------------------------------------------------------------------ RowStream protocol


class TestRowStream:
    def test_streams_are_single_use(self):
        r = make("r", ["a"], [(1,), (2,)])
        stream = RowStream.from_relation(r)
        assert sorted(stream) == [(1,), (2,)]
        with pytest.raises(StreamError):
            list(stream)

    def test_materialize_collapses_duplicates(self):
        r = make("r", ["a", "b"], [(1, 2), (1, 3)])
        stream = stream_project(RowStream.from_relation(r), ["a"])
        result = stream.materialize("p")
        assert len(result) == 1
        assert result.schema.field_names == ("a",)

    def test_materialize_keeps_a_partial_key(self):
        r = Relation("r", RelationSchema("r", [("a", INTEGER), ("b", INTEGER)], key=["a"]))
        r.insert_all([(1, 2), (2, 3)])
        result = RowStream.from_relation(r).materialize()
        assert result == r and result.find((2,)).b == 3

    def test_map_rows_is_pure_passthrough(self):
        r = make("r", ["a"], [(1,), (2,)])
        doubled = RowStream.from_relation(r).map_rows(lambda row: (row[0] * 2,))
        assert sorted(doubled) == [(2,), (4,)]

    def test_live_tuple_tracker_tracks_high_water(self):
        live = LiveTupleTracker()
        live.acquire(3)
        live.acquire(2)
        live.release(4)
        live.acquire(1)
        assert live.current == 2
        assert live.peak == 5


# ------------------------------------------------------------------ streaming kernels


class TestStreamingKernels:
    def test_stream_natural_join_matches_materialized(self):
        left = make("l", ["a", "b"], [(1, 10), (2, 20), (3, 30)])
        right = make("r", ["b", "c"], [(10, 7), (10, 8), (30, 9)])
        rows = sorted(stream_natural_join(RowStream.from_relation(left), right))
        assert rows == [(1, 10, 7), (1, 10, 8), (3, 30, 9)]

    def test_stream_natural_join_without_common_is_product(self):
        left = make("l", ["a"], [(1,), (2,)])
        right = make("r", ["b"], [(7,), (8,)])
        rows = sorted(stream_natural_join(RowStream.from_relation(left), right))
        assert rows == [(1, 7), (1, 8), (2, 7), (2, 8)]

    def test_stream_semijoin_emits_each_left_row_once(self):
        left = make("l", ["a"], [(1,), (2,), (3,)])
        right = make("r", ["a", "x"], [(1, 1), (1, 2), (1, 3), (3, 1)])
        rows = sorted(stream_semijoin(RowStream.from_relation(left), right, on=[("a", "a")]))
        assert rows == [(1,), (3,)]  # one witness per group, not one per partner

    def test_stream_union_dedups_and_earlier_source_wins(self):
        a = make("a", ["x"], [(1,), (2,)])
        b = make("b", ["x"], [(2,), (3,)])
        live = LiveTupleTracker()
        rows = list(stream_union(
            (RowStream.from_relation(a), RowStream.from_relation(b)), live=live
        ))
        assert rows == [(1,), (2,), (3,)]
        assert live.peak == 3  # the dedup set is breaker state
        assert live.current == 0  # released when the generator closed

    def test_stream_divide_streams_groupwise(self):
        takes = make("takes", ["student", "course"], [
            (1, 10), (1, 20), (2, 10), (3, 10), (3, 20),
        ])
        required = make("required", ["course"], [(10,), (20,)])
        live = LiveTupleTracker()
        rows = sorted(stream_divide(
            RowStream.from_relation(takes), required, by=[("course", "course")], live=live
        ))
        assert rows == [(1,), (3,)]
        assert live.peak == 5  # buffered one entry per (group, match)
        assert live.current == 0

    def test_stream_project_dedup_emits_first_witness_only(self):
        r = make("r", ["a", "b"], [(1, 1), (1, 2), (2, 1)])
        live = LiveTupleTracker()
        rows = list(stream_project(RowStream.from_relation(r), ["a"], dedup=True, live=live))
        assert rows == [(1,), (2,)]
        assert live.peak == 2

    def test_breaker_state_released_on_early_close(self):
        r = make("r", ["a", "b"], [(i, i) for i in range(10)])
        live = LiveTupleTracker()
        stream = stream_project(RowStream.from_relation(r), ["a"], dedup=True, live=live)
        iterator = iter(stream)
        next(iterator)
        next(iterator)
        # Chunks of 1, 2, 4, ...: breaker state runs at most one chunk ahead
        # of the rows pulled, never to the end of the input.
        assert 2 <= live.current <= 2 + 2
        iterator.close()
        assert live.current == 0


# --------------------------------------------------------------- pipeline integration


class TestStreamingExecution:
    def test_rows_streamed_and_operators_counted(self, figure1):
        result = QueryEngine(figure1, S1_STREAMED).run(PUBLISHING_TEACHERS_TEXT)
        assert result.statistics["rows_streamed"] > 0
        assert result.statistics["operators_pipelined"] > 0
        assert not result.combination.plan.literal

    def test_literal_plan_streams_and_counts_its_relations(self, figure1):
        """The literal Section 3.3 plan runs on the same pipeline; each of
        its relations is an operator output, counted as an intermediate."""
        result = QueryEngine(figure1, S1_LITERAL).run(PUBLISHING_TEACHERS_TEXT)
        assert result.combination.plan.literal
        assert result.statistics["rows_streamed"] > 0
        assert result.statistics["operators_pipelined"] > 0
        assert result.statistics["intermediate_tuples"] >= result.combination.peak_tuples > 0

    def test_semijoin_short_circuit_applies_on_the_showcase_query(self, figure1):
        result = QueryEngine(figure1, S1_STREAMED).run(OTHERS_PUBLISHED_1977_TEXT)
        notes = result.combination.operator_notes
        assert any(
            note.op.startswith("semijoin") and "short-circuit" in note.reason
            for note in notes
        ), [note.describe() for note in notes]

    def test_division_is_annotated_as_breaker(self, figure1):
        options = StrategyOptions.only(
            parallel_collection=True, plan="streamed"
        )
        result = QueryEngine(figure1, options).run(NO_1977_PAPERS_TEXT)
        expected = execute_naive(figure1, NO_1977_PAPERS_TEXT)
        assert result.relation == expected
        notes = result.combination.operator_notes
        division = [n for n in notes if n.op.startswith("ALL division")]
        assert division and division[0].mode == "materialized"
        assert "breaker" in division[0].reason
        assert result.combination.peak_tuples > 0  # the group table buffered

    def test_union_dedup_annotated_over_multiple_conjunctions(self, figure1):
        options = StrategyOptions.only(
            parallel_collection=True, plan="streamed"
        )
        engine = QueryEngine(figure1, options)
        result = engine.run(
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor) OR (e.enr < 3)]"
        )
        union_notes = [n for n in result.combination.operator_notes if n.op.startswith("union")]
        assert union_notes and "dedup" in union_notes[0].reason
        # With an outer quantifier the union passes duplicates through: the
        # division / dedup projection behind it absorbs them, so no matrix
        # tuple is held live twice.
        result = engine.run(EXAMPLE_21_TEXT)
        union_notes = [n for n in result.combination.operator_notes if n.op.startswith("union")]
        assert union_notes and "absorbs duplicates" in union_notes[0].reason
        assert result.relation == execute_naive(figure1, EXAMPLE_21_TEXT)

    def test_sizes_finalized_after_execution(self, figure1):
        result = QueryEngine(figure1, S1_STREAMED).run(OTHERS_PUBLISHED_1977_TEXT)
        combination = result.combination
        rows = combination.tuples.rows  # bare id tuples, one per answer, no duplicate
        assert combination.after_quantifiers_size == len(rows) == len(set(rows))
        assert combination.union_size >= combination.after_quantifiers_size
        assert len(combination.conjunction_sizes) == len(combination.conjunction_indexes)

    def test_streamed_peak_below_materialized_peak(self, figure1):
        streamed = QueryEngine(figure1, S1_STREAMED).run(OTHERS_PUBLISHED_1977_TEXT)
        literal = QueryEngine(figure1, S1_LITERAL).run(OTHERS_PUBLISHED_1977_TEXT)
        assert streamed.relation == literal.relation
        assert streamed.combination.peak_tuples <= literal.combination.peak_tuples

    def test_explain_analyze_annotates_streamed_and_materialized(self, figure1):
        options = StrategyOptions.only(
            parallel_collection=True, plan="streamed"
        )
        report = QueryEngine(figure1, options).explain(NO_1977_PAPERS_TEXT, analyze=True)
        assert "execution: streaming pipeline" in report
        assert "operators:" in report
        assert ": streamed — " in report
        assert ": materialized — " in report  # the division breaker

    def test_explain_analyze_reports_the_literal_plan_when_off(self, figure1):
        options = StrategyOptions.only(parallel_collection=True)
        report = QueryEngine(figure1, options).explain(NO_1977_PAPERS_TEXT, analyze=True)
        assert "\n  execution: literal Section 3.3 procedure, streamed\n" in report
        assert "peak n-tuples" in report
        assert ": streamed — " in report and ": materialized — " in report  # the division

    def test_construction_rerun_falls_back_to_materialized_tuples(self, figure1):
        resolved = TypeChecker.for_database(figure1).resolve(
            QueryEngine(figure1).parse(PUBLISHING_TEACHERS_TEXT)
        )
        prepared = prepare_query(resolved, figure1, S1_STREAMED, resolve=False)
        collection = CollectionPhase(prepared, figure1, S1_STREAMED).run()
        combination = CombinationPhase(prepared, figure1, collection, S1_STREAMED).run()
        assert combination.stream is not None
        first = ConstructionPhase(resolved, figure1).run(combination)
        assert combination.stream is None  # consumed
        # The re-run reads the id rows the drain appended, in the drained order.
        assert len(combination.tuples.rows) == combination.after_quantifiers_size > 0
        second = ConstructionPhase(resolved, figure1).run(combination)
        assert first == second and list(first) == list(second)

    def test_partially_consumed_stream_is_rejected_loudly(self, figure1):
        """A stream someone peeked at holds only a prefix in ``tuples`` —
        construction must raise rather than silently truncate the result."""
        resolved = TypeChecker.for_database(figure1).resolve(
            QueryEngine(figure1).parse(PUBLISHING_TEACHERS_TEXT)
        )
        prepared = prepare_query(resolved, figure1, S1_STREAMED, resolve=False)
        collection = CollectionPhase(prepared, figure1, S1_STREAMED).run()
        combination = CombinationPhase(prepared, figure1, collection, S1_STREAMED).run()
        iterator = iter(combination.stream)
        next(iterator)  # peek one row, then abandon
        iterator.close()
        with pytest.raises(StreamError):
            ConstructionPhase(resolved, figure1).run(combination)

    def test_fully_drained_stream_makes_tuples_fallback_safe(self, figure1):
        """Complete external exhaustion clears ``stream`` and materialises
        ``tuples`` in full, so construction still returns the exact result."""
        resolved = TypeChecker.for_database(figure1).resolve(
            QueryEngine(figure1).parse(PUBLISHING_TEACHERS_TEXT)
        )
        prepared = prepare_query(resolved, figure1, S1_STREAMED, resolve=False)
        collection = CollectionPhase(prepared, figure1, S1_STREAMED).run()
        combination = CombinationPhase(prepared, figure1, collection, S1_STREAMED).run()
        drained = list(combination.stream)
        assert combination.stream is None
        assert combination.tuples.rows == drained  # every id row, in order, once
        result = ConstructionPhase(resolved, figure1).run(combination)
        expected = QueryEngine(figure1, S1_LITERAL).run(PUBLISHING_TEACHERS_TEXT)
        assert result == expected.relation

    def test_separated_conjunctions_stream_per_subquery(self, figure1):
        options = StrategyOptions(separate_existential_conjunctions=True)
        result = QueryEngine(figure1, options).run(EXAMPLE_21_TEXT)
        expected = execute_naive(figure1, EXAMPLE_21_TEXT)
        assert result.relation == expected
        assert result.subqueries > 1
        assert not result.combination.plan.literal

    def test_separated_report_merges_sizes_and_no_id_rows(self):
        """The sub-queries' ids index their own intern tables, so the merged
        report keeps no ``tuples`` (it kept only the last sub-query's), and
        ``after_quantifiers_size`` is the sum of the sub-queries' sizes."""
        database = build_university_database(scale=1)
        head = "[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses: SOME t IN timetable "
        joined = "(e.enr = t.tenr) AND (c.cnr = t.tcnr)"
        first, second = f"({joined})", f"({joined} AND (e.enr <= 5))"
        text = f"{head}({first} OR {second})]"
        separated = StrategyOptions(separate_existential_conjunctions=True)
        result = QueryEngine(database, separated).run(text)
        assert result.relation == execute_naive(database, text)
        assert result.subqueries == 2 and result.combination.tuples is None
        alone = [
            QueryEngine(database, StrategyOptions.none()).run(f"{head}{conjunction}]").combination
            for conjunction in (first, second)
        ]
        assert [len(c.tuples) for c in alone] == [9, 6]
        assert result.combination.after_quantifiers_size == 15


# ------------------------------------------------------------------ hypothesis property

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STREAM_CONFIGS = [
    StrategyOptions.all_strategies(),
    StrategyOptions.none().with_(plan="streamed"),
    StrategyOptions.only(parallel_collection=True, plan="streamed"),
    StrategyOptions(separate_existential_conjunctions=True),
]


def workload(seed: int):
    database, selection = random_workload(seed)
    try:
        resolved = TypeChecker.for_database(database).resolve(selection)
    except PascalRError:
        return None
    return database, resolved


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    config=st.integers(min_value=0, max_value=len(STREAM_CONFIGS) - 1),
)
def test_streamed_and_materialized_agree_on_random_workloads(seed, config):
    """The streamed plan is byte-identical to the literal plan (and to the
    naive ground truth) on randomly generated databases and queries."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    expected = evaluate_selection_naive(resolved, database)
    engine = QueryEngine(database)
    options = STREAM_CONFIGS[config]
    streamed = engine.run(resolved, options=options.with_(plan="streamed"))
    literal = engine.run(resolved, options=options.with_(plan="literal"))
    assert streamed.relation == expected
    assert literal.relation == expected
    assert sorted(r.values for r in streamed.relation) == sorted(
        r.values for r in literal.relation
    )


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_rows_streamed_positive_whenever_a_join_pipelines(seed):
    """``rows_streamed > 0`` whenever streaming is on, the prepared matrix
    holds a dyadic (join) structure, and the join's inputs are non-empty."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    options = StrategyOptions.only(parallel_collection=True, plan="streamed")
    engine = QueryEngine(database, options)
    try:
        result = engine.run(resolved)
    except PascalRError:
        return
    assert result.relation == evaluate_selection_naive(resolved, database)
    if result.combination is None:
        return
    # Every result row was pulled through the pipeline, so a non-empty
    # result implies positive streaming throughput.  (A conjunction whose
    # source structure — or an annihilating empty range gate — is empty may
    # legitimately stream nothing.)
    if len(result.relation) > 0:
        assert result.statistics["rows_streamed"] > 0, seed
    has_live_source = any(
        order and order[0][1] > 0 for order in result.combination.join_orders
    )
    if has_live_source and not any(
        "gate" in note.op for note in result.combination.operator_notes
    ):
        assert result.statistics["rows_streamed"] > 0, seed
