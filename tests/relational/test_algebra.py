"""Unit tests for the relational algebra used by the combination phase.

Each operator is one streaming kernel; ``RowStream.materialize()`` turns its
output back into a relation, which is how these tests read it.
"""

import pytest

from repro.engine.stream import RowStream
from repro.errors import AlgebraError
from repro.relational.algebra import (
    stream_divide,
    stream_natural_join,
    stream_project,
    stream_semijoin,
    stream_union,
)
from repro.relational.relation import Relation
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema


def make(name: str, fields: list[str], rows: list[tuple]) -> Relation:
    schema = RelationSchema(name, [(f, INTEGER) for f in fields])
    relation = Relation(name, schema)
    for row in rows:
        relation.insert(dict(zip(fields, row)))
    return relation


def stream(relation: Relation) -> RowStream:
    return RowStream.from_relation(relation)


def divide(dividend: Relation, divisor: Relation, by) -> Relation:
    return stream_divide(stream(dividend), divisor, by=by).materialize()


@pytest.fixture
def enrolment():
    """A little student/course enrolment universe for division tests."""
    takes = make("takes", ["student", "course"], [
        (1, 10), (1, 20), (1, 30),
        (2, 10), (2, 20),
        (3, 30),
    ])
    courses = make("required", ["course"], [(10,), (20,)])
    return takes, courses


class TestBasicOperators:
    def test_project_eliminates_duplicates(self):
        r = make("r", ["a", "b"], [(1, 2), (1, 3)])
        assert list(stream_project(stream(r), ["a"], dedup=True)) == [(1,)]
        assert len(stream_project(stream(r), ["a"]).materialize()) == 1

    def test_project_keeps_requested_order(self):
        r = make("r", ["a", "b"], [(1, 2)])
        projected = stream_project(stream(r), ["b", "a"]).materialize()
        assert projected.schema.field_names == ("b", "a")
        assert [record.values for record in projected] == [(2, 1)]

    def test_natural_join_shares_common_columns(self):
        r = make("r", ["a", "b"], [(1, 2), (2, 3)])
        s = make("s", ["b", "c"], [(2, 9), (3, 8), (7, 1)])
        result = stream_natural_join(stream(r), s).materialize()
        assert result.schema.field_names == ("a", "b", "c")
        assert sorted(record.values for record in result) == [(1, 2, 9), (2, 3, 8)]

    def test_natural_join_without_common_columns_is_product(self):
        r = make("r", ["a"], [(1,), (2,)])
        s = make("s", ["b"], [(5,)])
        assert len(stream_natural_join(stream(r), s).materialize()) == 2


class TestUnion:
    def test_union(self):
        r = make("r", ["a"], [(1,), (2,)])
        s = make("r2", ["a"], [(2,), (3,)])
        assert list(stream_union((stream(r), stream(s)))) == [(1,), (2,), (3,)]

    def test_union_left_wins_on_key_collisions(self):
        schema = RelationSchema("r", [("k", INTEGER), ("v", INTEGER)], key=["k"])
        left, right = Relation("l", schema), Relation("r", schema)
        left.insert({"k": 1, "v": 10})
        right.insert({"k": 1, "v": 99})
        right.insert({"k": 2, "v": 20})
        assert list(stream_union((stream(left), stream(right)))) == [(1, 10), (2, 20)]

    def test_union_schema_mismatch_raises(self):
        r = make("r", ["a"], [(1,)])
        s = make("s", ["b"], [(1,)])
        with pytest.raises(AlgebraError):
            stream_union((stream(r), stream(s)))

    def test_union_does_not_mutate_operands(self):
        r = make("r", ["a"], [(1,)])
        s = make("r2", ["a"], [(2,)])
        stream_union((stream(r), stream(s))).materialize()
        assert len(r) == 1 and len(s) == 1


class TestDivision:
    def test_divide_students_taking_all_required_courses(self, enrolment):
        takes, required = enrolment
        result = divide(takes, required, by=[("course", "course")])
        assert {rec.student for rec in result} == {1, 2}

    def test_divide_by_empty_divisor_returns_all_groups(self, enrolment):
        takes, _ = enrolment
        empty = make("required", ["course"], [])
        result = divide(takes, empty, by=[("course", "course")])
        assert {rec.student for rec in result} == {1, 2, 3}

    def test_divide_empty_dividend(self, enrolment):
        _, required = enrolment
        empty = make("takes", ["student", "course"], [])
        assert len(divide(empty, required, by=[("course", "course")])) == 0

    def test_divide_unknown_columns_raise(self, enrolment):
        takes, required = enrolment
        with pytest.raises(AlgebraError):
            divide(takes, required, by=[("nope", "course")])
        with pytest.raises(AlgebraError):
            divide(takes, required, by=[("course", "nope")])

    def test_divide_eliminating_all_columns_raises(self, enrolment):
        _, required = enrolment
        one_column = make("takes", ["course"], [(10,), (20,)])
        with pytest.raises(AlgebraError):
            divide(one_column, required, by=[("course", "course")])

    def test_division_matches_quantifier_semantics(self, enrolment):
        """x qualifies iff for every divisor row the pair is in the dividend."""
        takes, required = enrolment
        result = divide(takes, required, by=[("course", "course")])
        students = {rec.student for rec in takes}
        required_courses = {rec.course for rec in required}
        expected = {
            s
            for s in students
            if all((s, c) in {(r.student, r.course) for r in takes} for c in required_courses)
        }
        assert {rec.student for rec in result} == expected


class TestSemijoin:
    def test_semijoin(self):
        r = make("r", ["a"], [(1,), (2,), (3,)])
        s = make("s", ["b"], [(2,), (3,), (4,)])
        result = stream_semijoin(stream(r), s, on=[("a", "b")]).materialize()
        assert {rec.a for rec in result} == {2, 3}
