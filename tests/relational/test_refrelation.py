"""Unit tests for the ``@rel`` reference type of Figure 2.

The structures themselves are checked as the collection phase builds them
(``tests/engine/test_phases.py::TestFigure2Structures``)."""

import pytest

from repro.errors import ValidationError
from repro.relational.refrelation import ReferenceType, ref_field_name
from repro.relational.relation import Relation
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema


@pytest.fixture
def courses() -> Relation:
    schema = RelationSchema("courses", [("cnr", INTEGER), ("clevel", INTEGER)], key=["cnr"])
    relation = Relation("courses", schema)
    for cnr, level in [(1, 1), (2, 2), (3, 4)]:
        relation.insert({"cnr": cnr, "clevel": level})
    return relation


@pytest.fixture
def timetable() -> Relation:
    schema = RelationSchema("timetable", [("tcnr", INTEGER)], key=["tcnr"])
    relation = Relation("timetable", schema)
    for tcnr in (1, 2):
        relation.insert({"tcnr": tcnr})
    return relation


class TestReferenceType:
    def test_accepts_references_into_target(self, courses):
        rtype = ReferenceType("courses")
        ref = courses.ref(1)
        assert rtype.contains(ref)
        assert rtype.coerce(ref) is ref

    def test_rejects_foreign_references(self, courses, timetable):
        rtype = ReferenceType("courses")
        with pytest.raises(ValidationError):
            rtype.coerce(timetable.ref(1))

    def test_rejects_non_references(self):
        with pytest.raises(ValidationError):
            ReferenceType("courses").coerce(42)

    def test_untargeted_reference_type_accepts_any(self, courses, timetable):
        rtype = ReferenceType()
        assert rtype.contains(courses.ref(1))
        assert rtype.contains(timetable.ref(1))

    def test_comparability(self):
        assert ReferenceType("courses").is_comparable_with(ReferenceType("courses"))
        assert not ReferenceType("courses").is_comparable_with(ReferenceType("papers"))
        assert ReferenceType("courses").is_comparable_with(ReferenceType())

    def test_name(self):
        assert ReferenceType("courses").name == "@courses"


def test_ref_field_name():
    assert ref_field_name("c") == "c_ref"
