"""Unit tests for indexes and value lists (Figure 2 structures, Strategy 4)."""

import pytest

from repro.errors import RelationError
from repro.relational.index import HashIndex, SortedIndex, ValueList, build_index
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema


@pytest.fixture
def timetable() -> Relation:
    schema = RelationSchema("timetable", [("tenr", INTEGER), ("tcnr", INTEGER)], key=["tenr", "tcnr"])
    relation = Relation("timetable", schema, tracker=AccessStatistics())
    for tenr, tcnr in [(1, 10), (1, 20), (2, 10), (3, 30), (4, 20)]:
        relation.insert({"tenr": tenr, "tcnr": tcnr})
    return relation


class TestHashIndex:
    def test_build_scans_once(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert timetable.tracker.scans("timetable") == 1
        assert len(index) == 5

    def test_probe_equality(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert index.probe_operator("=", 10) == [(1, 10), (2, 10)]  # element keys, in scan order

    def test_probe_missing_value(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert index.probe_operator("=", 99) == []

    def test_probe_not_equal(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert sorted(index.probe_operator("<>", 10)) == [(1, 20), (3, 30), (4, 20)]

    def test_probe_operator_range(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert len(index.probe_operator(">=", 20)) == 3

    def test_probe_records_statistics(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        index.probe_operator("=", 10)
        stats = timetable.tracker.as_dict()["relations"]["timetable"]
        assert stats["index_probes"] == 1
        assert stats["index_entries_read"] == 2

    def test_distinct_values(self, timetable):
        index = HashIndex(timetable, "tcnr").build()
        assert index.distinct_values() == 3

    def test_unknown_field_raises(self, timetable):
        with pytest.raises(RelationError):
            HashIndex(timetable, "troom")

    def test_entries_pair_each_value_with_an_element_key(self, timetable):
        # Figure 2's ind_t_cnr: one <tcnr, @timetable> entry per element; the
        # index covers timetable alone, so @t is filed as t's key.
        index = HashIndex(timetable, "tcnr", name="ind_t_cnr").build()
        entries = [
            (value, key)
            for value in {record.tcnr for record in timetable}
            for key in index.probe_operator("=", value)
        ]
        assert len(entries) == len(index) == 5
        assert all(timetable[key].tcnr == value for value, key in entries)


class TestSortedIndex:
    def test_range_probes(self, timetable):
        index = SortedIndex(timetable, "tcnr").build()
        assert len(index.probe_operator("<", 20)) == 2
        assert len(index.probe_operator("<=", 20)) == 4
        assert len(index.probe_operator(">", 20)) == 1
        assert len(index.probe_operator(">=", 30)) == 1

    def test_equality_probes(self, timetable):
        index = SortedIndex(timetable, "tcnr").build()
        assert len(index.probe_operator("=", 20)) == 2
        assert len(index.probe_operator("<>", 20)) == 3

    def test_empty_index_answers_nothing(self):
        schema = RelationSchema("empty", [("x", INTEGER)])
        index = SortedIndex(Relation("empty", schema), "x").build()
        assert (index.probe_operator("<=", 1), index.probe_operator(">", 1)) == ([], [])

    def test_add_files_what_it_is_given_in_value_order(self, timetable):
        index = SortedIndex(timetable, "tcnr")
        for number, record in enumerate(timetable):
            index.add(record.tcnr, number)
        assert index.probe_operator(">=", 10) == [0, 2, 1, 4, 3]  # ids; equal values in filing order

    def test_unknown_operator_raises(self, timetable):
        index = SortedIndex(timetable, "tcnr").build()
        with pytest.raises(RelationError):
            index.probe_operator("!=", 10)

    def test_entries_added_after_a_probe_are_sorted_and_counted_on_the_next(self, timetable):
        index = SortedIndex(timetable, "tcnr").build()
        assert (len(index.probe_operator("<=", 15)), index.distinct_values()) == (2, 3)
        extra = timetable.insert({"tenr": 9, "tcnr": 15})
        index.add(extra.tcnr, (9, 15))
        assert index.probe_operator("<=", 15) == [(1, 10), (2, 10), (9, 15)]
        assert index.distinct_values() == 4


class TestBuildIndex:
    def test_equality_gets_hash_index(self, timetable):
        assert isinstance(build_index(timetable, "tcnr", "="), HashIndex)

    def test_ordering_gets_sorted_index(self, timetable):
        assert isinstance(build_index(timetable, "tcnr", "<="), SortedIndex)


class TestValueList:
    def test_some_equality_is_membership(self):
        values = ValueList([3, 5, 7])
        assert values.satisfies_some("=", 5)
        assert not values.satisfies_some("=", 4)

    def test_some_less_than_uses_maximum(self):
        values = ValueList([3, 5, 7])
        assert values.satisfies_some("<", 6)       # 6 < max(7)
        assert not values.satisfies_some("<", 7)   # nothing above 7

    def test_all_less_than_uses_minimum(self):
        values = ValueList([3, 5, 7])
        assert values.satisfies_all("<", 2)
        assert not values.satisfies_all("<", 3)

    def test_some_not_equal_single_value_shortcut(self):
        assert not ValueList([4]).satisfies_some("<>", 4)
        assert ValueList([4]).satisfies_some("<>", 5)
        # with two distinct values the answer is always true
        assert ValueList([4, 6]).satisfies_some("<>", 4)

    def test_all_equal_single_value_shortcut(self):
        assert ValueList([4]).satisfies_all("=", 4)
        assert not ValueList([4]).satisfies_all("=", 5)
        assert not ValueList([4, 6]).satisfies_all("=", 4)

    def test_all_not_equal(self):
        values = ValueList([3, 5])
        assert values.satisfies_all("<>", 4)
        assert not values.satisfies_all("<>", 5)

    def test_empty_value_list_semantics(self):
        empty = ValueList()
        assert empty.is_empty()
        assert not empty.satisfies_some("=", 1)
        assert empty.satisfies_all("=", 1)

    def test_min_max_and_single_value(self):
        values = ValueList([3, 5, 7])
        assert values.minimum() == 3
        assert values.maximum() == 7
        assert values.single_value() is None
        assert ValueList([9]).single_value() == 9

    def test_min_of_empty_raises(self):
        with pytest.raises(RelationError):
            ValueList().minimum()
        assert ValueList().single_value() is None

    def test_extremes_are_kept_until_the_next_add(self):
        values = ValueList([5])
        assert (values.minimum(), values.maximum(), values.single_value()) == (5, 5, 5)
        assert values._extremes is values._summary("minimum")  # worked out once
        values.add(9)
        values.add(3)
        assert (values.minimum(), values.maximum(), values.single_value()) == (3, 9, None)
        assert values.satisfies_some("<", 8) and not values.satisfies_all("<", 8)

    def test_distinct_count_and_contains(self):
        values = ValueList([1, 1, 2])
        assert values.distinct_count() == 2
        assert 2 in values
        assert len(values) == 2

    def test_matches_brute_force_quantification(self):
        # The value-list shortcuts must agree with direct quantification.
        inner = [2, 4, 6, 9]
        values = ValueList(inner)
        from repro.types.scalar import compare_values

        for op in ("=", "<>", "<", "<=", ">", ">="):
            for outer in range(0, 11):
                assert values.satisfies_some(op, outer) == any(
                    compare_values(op, outer, v) for v in inner
                ), (op, outer)
                assert values.satisfies_all(op, outer) == all(
                    compare_values(op, outer, v) for v in inner
                ), (op, outer)
