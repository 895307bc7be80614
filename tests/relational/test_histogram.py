"""The statistics subsystem: exact counts, summaries, sketches, estimator.

The property test mirrors ``test_index_maintenance``: random interleavings
of insert / delete / assign / clear against a relation with attached
:class:`TableStatistics`, asserting after every step that the incrementally
maintained statistics are **byte-identical** to a fresh rebuild from the
relation's contents — exact counts and every derived summary structure
(hot keys, both equi-depth histograms, the KMV sketch), on both storage
backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.histogram import (
    HOT_KEYS,
    KMV_K,
    STALENESS_THRESHOLD,
    ColumnSketch,
    ColumnSummary,
    TableStatistics,
    estimate_join,
    stable_hash,
)
from repro.relational.statistics import estimate_join_cardinality
from repro.types.scalar import INTEGER, CharArray, Enumeration, Subrange, compare_values

_SMALL = Subrange(0, 9, "small")

_OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "assign", "clear")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)


def _make_database(paged: bool) -> Database:
    database = Database("stats", paged=paged)
    database.create_relation(
        "r", [("k", INTEGER), ("v", _SMALL)], key=["k"], page_capacity=4
    )
    return database


def _apply(relation, op: str, key: int, value: int, state: dict[int, int]) -> None:
    if op == "insert":
        if state.get(key, value) != value:
            return  # would be a key violation; not what this test is about
        relation.insert({"k": key, "v": value})
        state[key] = value
    elif op == "delete":
        relation.delete_key(key)
        state.pop(key, None)
    elif op == "assign":
        state.pop(key, None)
        state[key] = value
        relation.assign([{"k": k, "v": v} for k, v in sorted(state.items())])
    else:  # clear
        relation.clear()
        state.clear()


def _canonical(summary: ColumnSummary) -> tuple:
    """Every derived structure, in a deterministic order — the byte identity."""
    return (
        summary.total,
        summary.distinct,
        sorted(summary.hot.items(), key=lambda item: stable_hash(item[0])),
        summary.hash_buckets,
        summary.value_buckets,
        summary.kmv,
    )


def _assert_statistics_exact(maintained: TableStatistics, relation) -> None:
    """Maintained counts and summaries equal a from-scratch rebuild."""
    rebuilt = TableStatistics(relation)
    for name, column in maintained.columns.items():
        fresh = rebuilt.columns[name]
        assert column.counts == fresh.counts, name
        assert column.total == fresh.total, name
        assert column.distinct == fresh.distinct, name
        # The derivation is a pure function of the counts: force both sides
        # and compare every structure the estimators read.
        assert _canonical(ColumnSummary(column.counts)) == _canonical(
            ColumnSummary(fresh.counts)
        ), name


@pytest.mark.parametrize("paged", (False, True), ids=("memory", "paged"))
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_random_interleavings_keep_statistics_exact(paged: bool, ops) -> None:
    database = _make_database(paged)
    relation = database.relation("r")
    stats = database.table_statistics("r")
    state: dict[int, int] = {}
    for op, key, value in ops:
        _apply(relation, op, key, value, state)
        assert {record["k"]: record["v"] for record in relation.elements()} == state
        _assert_statistics_exact(stats, relation)


@pytest.mark.parametrize("paged", (False, True), ids=("memory", "paged"))
def test_raw_inserts_maintain_statistics_too(paged: bool) -> None:
    from repro.relational.record import Record

    database = _make_database(paged)
    relation = database.relation("r")
    stats = database.table_statistics("r")
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 5}))
    relation.bulk_insert_raw([Record(relation.schema, {"k": 2, "v": 5})])
    column = stats.column("v")
    assert column.frequency(5) == 2
    relation.insert_raw(Record(relation.schema, {"k": 1, "v": 7}))  # overwrite
    assert column.frequency(5) == 1
    assert column.frequency(7) == 1
    _assert_statistics_exact(stats, relation)


# --------------------------------------------------------------- stable hashing

LEVEL = Enumeration("leveltype", ("freshman", "sophomore", "junior", "senior"))


class TestStableHash:
    def test_deterministic_across_calls(self):
        for value in (0, -3, 17, "Jarke", "", None, True, False, 2.5, (1, "a")):
            assert stable_hash(value) == stable_hash(value)

    def test_known_values_are_pinned(self):
        # The hash-ordered histogram and the KMV sketch are built from these
        # values: they must not depend on the process's string-hash salt.
        assert stable_hash((7,)) == stable_hash((7,))
        assert stable_hash("employees") != stable_hash("papers")
        assert 0 <= stable_hash("anything") < 2**32

    def test_distinguishes_types_not_just_repr(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash(None) != stable_hash("None")

    def test_enum_values_hash_by_enumeration_and_ordinal(self):
        assert stable_hash(LEVEL.value("junior")) == stable_hash(LEVEL.value("junior"))
        assert stable_hash(LEVEL.value("junior")) != stable_hash(LEVEL.value("senior"))

    def test_padded_char_arrays_hash_like_they_compare(self):
        # compare_values strips CharArray blank padding, so stable_hash must
        # too: the same name stored in CharArray columns of different
        # declared lengths falls into the same hash bucket, or a join
        # estimate across them would miss its matches.
        for text in ("Hütter", "Jarke", "", "a b"):
            short = CharArray(10).coerce(text)
            long = CharArray(36).coerce(text)
            assert compare_values("=", short, long)
            assert stable_hash(short) == stable_hash(long)
            assert stable_hash(short) == stable_hash(text)

    def test_interior_whitespace_still_distinguishes(self):
        assert stable_hash("a b") != stable_hash("ab")
        assert stable_hash(" a") != stable_hash("a")

    @given(st.text(max_size=18), st.integers(min_value=0, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_hash_agrees_with_comparison_for_any_padding(self, text, pad):
        padded = text + " " * pad
        assert compare_values("=", text, padded)
        assert stable_hash(text) == stable_hash(padded)


# --------------------------------------------------------------- summaries


class TestColumnSummary:
    def test_uniform_data_has_no_hot_keys(self):
        summary = ColumnSummary({value: 3 for value in range(100)})
        assert summary.hot == {}
        assert summary.total == 300
        assert summary.distinct == 100
        assert abs(summary.frequency(17) - 3.0) < 1.5

    def test_hot_keys_are_exact(self):
        counts = {value: 1 for value in range(100)}
        counts["hot"] = 500
        summary = ColumnSummary(counts)
        assert summary.frequency("hot") == 500.0
        assert summary.hot["hot"] == 500
        assert len(summary.hot) <= HOT_KEYS

    def test_range_selectivity_walks_the_value_histogram(self):
        summary = ColumnSummary({value: 1 for value in range(100)})
        assert summary.selectivity("<", 0) <= 0.1
        assert summary.selectivity("<=", 99) >= 0.9
        half = summary.selectivity("<=", 49)
        assert 0.35 <= half <= 0.65
        assert abs(summary.selectivity(">", 49) - (1.0 - half)) < 1e-9

    def test_equality_selectivity_uses_frequency(self):
        counts = {value: 1 for value in range(100)}
        counts["hot"] = 100
        summary = ColumnSummary(counts)
        assert summary.selectivity("=", "hot") == pytest.approx(0.5)
        assert summary.selectivity("<>", "hot") == pytest.approx(0.5)

    def test_kmv_estimates_large_distinct_counts(self):
        summary = ColumnSummary({value: 1 for value in range(5000)})
        assert len(summary.kmv) == KMV_K
        estimate = summary.distinct_estimate()
        assert 2500 <= estimate <= 10000  # within 2x at k=32

    def test_small_distinct_counts_are_exact(self):
        summary = ColumnSummary({value: 1 for value in range(10)})
        assert summary.distinct_estimate() == 10.0


class TestEstimateJoin:
    def test_uniform_matches_the_classic_formula(self):
        a = ColumnSketch(value for value in range(200) for _ in range(2))
        b = ColumnSketch(value for value in range(100) for _ in range(3))
        classic = estimate_join_cardinality(400, 300, 200, 100)
        got = estimate_join(a, b)
        assert got == pytest.approx(classic, rel=0.5)

    def test_skewed_join_is_priced_near_its_true_size(self):
        hot_side = ColumnSketch([0] * 300 + list(range(1, 101)))
        other = ColumnSketch([0] * 300 + list(range(101, 200)))
        true_size = 300 * 300  # only the hot key matches
        got = estimate_join(hot_side, other)
        assert got == pytest.approx(true_size, rel=0.2)
        # The uniform formula is catastrophically wrong on the same data.
        classic = estimate_join_cardinality(400, 399, 101, 100)
        assert classic < true_size / 50

    def test_empty_side_estimates_zero(self):
        assert estimate_join(ColumnSketch([]), ColumnSketch([1, 2])) == 0.0


# --------------------------------------------------------------- staleness


class TestStaleness:
    def test_summary_is_cached_until_threshold(self):
        database = _make_database(paged=False)
        relation = database.relation("r")
        stats = database.table_statistics("r")
        relation.insert({"k": 0, "v": 1})
        column = stats.columns["v"]
        first = column.summary(STALENESS_THRESHOLD)
        relation.insert({"k": 1, "v": 2})  # stale, but under the threshold
        assert column.summary(STALENESS_THRESHOLD) is first
        for key in range(2, STALENESS_THRESHOLD + 3):
            relation.insert({"k": key, "v": key % 10})
        assert column.summary(STALENESS_THRESHOLD) is not first

    def test_rebuilds_are_counted(self):
        database = _make_database(paged=False)
        relation = database.relation("r")
        relation.insert({"k": 0, "v": 1})
        stats = database.table_statistics("r")
        database.reset_statistics()
        stats.summary("v")
        assert database.statistics.histogram_rebuilds == 1
        stats.summary("v")  # cached — no second rebuild
        assert database.statistics.histogram_rebuilds == 1
        database.refresh_statistics(["r"])
        assert database.statistics.histogram_rebuilds == 1 + len(stats.columns)

    def test_drop_relation_detaches_statistics(self):
        database = _make_database(paged=False)
        database.table_statistics("r")
        database.drop_relation("r")
        assert database.table_statistics("r", create=False) is None
