"""Unit tests for records, relations, selected variables and references."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DanglingReferenceError,
    DuplicateKeyError,
    MissingElementError,
    SchemaError,
)
from repro.relational.record import BULK_ROWS, Record
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER, CharArray, Enumeration
from repro.types.schema import RelationSchema

STATUS = Enumeration("statustype", ("student", "technician", "assistant", "professor"))


@pytest.fixture
def schema() -> RelationSchema:
    return RelationSchema(
        "employees",
        [("enr", INTEGER), ("ename", CharArray(10)), ("estatus", STATUS)],
        key=["enr"],
    )


@pytest.fixture
def employees(schema) -> Relation:
    relation = Relation("employees", schema)
    relation.insert({"enr": 1, "ename": "Jarke", "estatus": "professor"})
    relation.insert({"enr": 2, "ename": "Schmidt", "estatus": "professor"})
    relation.insert({"enr": 3, "ename": "Mall", "estatus": "assistant"})
    return relation


class TestRecord:
    def test_attribute_and_subscript_access(self, schema):
        record = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "professor"})
        assert record.enr == 1
        assert record["estatus"] == STATUS.professor

    def test_key(self, schema):
        record = Record(schema, {"enr": 5, "ename": "Koch", "estatus": "student"})
        assert record.key == (5,)

    def test_immutable(self, schema):
        record = Record(schema, {"enr": 5, "ename": "Koch", "estatus": "student"})
        with pytest.raises(AttributeError):
            record.enr = 6

    def test_equality_and_hash_are_value_based(self, schema):
        a = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "professor"})
        b = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "professor"})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_the_fast_path_builds_the_record_the_constructor_builds(self, schema):
        built = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "professor"})
        raw = Record.raw(schema, built.values)
        assert raw == built and hash(raw) == hash(built)
        assert raw.schema is schema and raw.values is built.values
        assert (raw.enr, raw["estatus"], raw.key) == (1, STATUS.professor, (1,))
        with pytest.raises(AttributeError):
            raw.enr = 2

    def test_tuple_construction_checks_arity(self, schema):
        with pytest.raises(SchemaError):
            Record(schema, (1, "x"))

    def test_replace(self, schema):
        record = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "student"})
        promoted = record.replace(estatus="professor")
        assert promoted.estatus == STATUS.professor
        assert record.estatus == STATUS.student

    def test_as_dict_and_project_values(self, schema):
        record = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "student"})
        assert record.as_dict()["enr"] == 1
        assert record.project_values(("estatus", "enr")) == (STATUS.student, 1)

    def test_get_with_default(self, schema):
        record = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "student"})
        assert record.get("salary", 0) == 0

    def test_unknown_attribute_raises(self, schema):
        record = Record(schema, {"enr": 1, "ename": "Jarke", "estatus": "student"})
        with pytest.raises(AttributeError):
            _ = record.salary


class TestRelationUpdates:
    def test_insert_and_len(self, employees):
        assert len(employees) == 3

    def test_insert_same_element_is_noop(self, employees):
        employees.insert({"enr": 1, "ename": "Jarke", "estatus": "professor"})
        assert len(employees) == 3

    def test_insert_conflicting_key_raises(self, employees):
        with pytest.raises(DuplicateKeyError):
            employees.insert({"enr": 1, "ename": "Impostor", "estatus": "student"})

    def test_insert_wrong_schema_record_raises(self, employees):
        other = RelationSchema("other", [("x", INTEGER)])
        with pytest.raises(SchemaError):
            employees.insert(Record(other, {"x": 1}))

    def test_delete_by_element_and_key(self, employees):
        assert employees.delete({"enr": 3, "ename": "Mall", "estatus": "assistant"})
        assert not employees.contains_key(3)
        assert employees.delete_key(2)
        assert len(employees) == 1

    def test_delete_missing_returns_false(self, employees):
        assert not employees.delete_key(99)

    def test_assign_replaces_contents(self, employees):
        employees.assign([{"enr": 9, "ename": "New", "estatus": "student"}])
        assert len(employees) == 1
        assert employees.contains_key(9)

    def test_clear_and_is_empty(self, employees):
        employees.clear()
        assert employees.is_empty()

    def test_copy_is_independent(self, employees):
        clone = employees.copy()
        clone.delete_key(1)
        assert employees.contains_key(1)
        assert not clone.contains_key(1)


class TestSelectedVariablesAndReferences:
    def test_selected_variable(self, employees):
        assert employees[1].ename.strip() == "Jarke"
        assert employees[(2,)].ename.strip() == "Schmidt"

    def test_selected_variable_missing_raises(self, employees):
        with pytest.raises(MissingElementError):
            employees[99]

    def test_reference_round_trip(self, employees):
        ref = employees.ref(1)
        assert ref.deref().ename.strip() == "Jarke"
        assert ref.exists()

    def test_reference_of_record(self, employees):
        record = employees[3]
        ref = employees.ref_of(record)
        assert ref.deref() == record

    def test_reference_for_missing_element_raises(self, employees):
        with pytest.raises(MissingElementError):
            employees.ref(99)

    def test_dangling_reference_detected(self, employees):
        ref = employees.ref(3)
        employees.delete_key(3)
        assert not ref.exists()
        with pytest.raises(DanglingReferenceError):
            ref.deref()

    def test_reference_equality_and_hash(self, employees):
        assert employees.ref(1) == employees.ref(1)
        assert employees.ref(1) != employees.ref(2)
        assert len({employees.ref(1), employees.ref(1)}) == 1

    def test_reference_component_shortcut(self, employees):
        assert employees.ref(2).component("estatus") == STATUS.professor

    def test_refs_iterates_all(self, employees):
        assert len(list(employees.refs())) == 3


class TestRelationSemantics:
    def test_contains_record_and_key(self, employees):
        record = employees[1]
        assert record in employees
        assert (1,) in employees
        assert 1 in employees

    def test_equality_is_set_based(self, schema, employees):
        other = Relation("other", schema)
        for record in list(employees)[::-1]:
            other.insert(record)
        assert other == employees

    def test_scan_counts_accesses(self, schema):
        stats = AccessStatistics()
        relation = Relation("employees", schema, tracker=stats)
        relation.insert({"enr": 1, "ename": "Jarke", "estatus": "professor"})
        relation.insert({"enr": 2, "ename": "Schmidt", "estatus": "professor"})
        list(relation.scan())
        list(relation.scan())
        assert stats.scans("employees") == 2
        assert stats.elements_read("employees") == 4

    def test_plain_iteration_is_untracked(self, schema):
        stats = AccessStatistics()
        relation = Relation("employees", schema, tracker=stats)
        relation.insert({"enr": 1, "ename": "Jarke", "estatus": "professor"})
        list(relation)
        assert stats.scans("employees") == 0

    def test_insert_new_rows_stores_and_returns_only_the_unmet(self):
        pairs = Relation("pairs", RelationSchema("pairs", [("a", INTEGER), ("b", INTEGER)]))
        pairs.insert({"a": 1, "b": 1})
        fresh = pairs.insert_new_rows([(2, 2), (1, 1), (2, 2), (3, 3)])
        assert [record.values for record in fresh] == [(2, 2), (3, 3)]
        assert [record.values for record in pairs] == [(1, 1), (2, 2), (3, 3)]
        assert pairs.insert_new_rows([(3, 3)]) == []

    def test_insert_new_rows_keeps_first_witnesses_in_order_and_bumps_the_version(self):
        pairs = Relation("pairs", RelationSchema("pairs", [("a", INTEGER), ("b", INTEGER)]))
        version = pairs._version
        fresh = pairs.insert_new_rows([(5, 1), (2, 2), (5, 1), (4, 4), (2, 2)])
        assert [record.values for record in fresh] == [(5, 1), (2, 2), (4, 4)]
        assert pairs.elements() == fresh
        assert all(pairs.find(record.values) is record for record in fresh)
        assert pairs._version > version
        version = pairs._version
        assert [r.values for r in pairs.insert_new_rows([(4, 4), (1, 1)])] == [(1, 1)]
        assert [r.values for r in pairs] == [(5, 1), (2, 2), (4, 4), (1, 1)]
        assert pairs._version > version
        assert pairs == Relation("copy", pairs.schema, [(1, 1), (4, 4), (2, 2), (5, 1)])

    def test_insert_new_rows_refuses_a_partial_key(self, employees):
        # A value row is its own key only when the key covers every component.
        with pytest.raises(AssertionError, match="key = all components"):
            employees.insert_new_rows([(4, "Koch", "student")])
        assert len(employees) == 3

    def test_show_renders_table(self, employees):
        text = employees.show()
        assert "ename" in text
        assert "Jarke" in text

    def test_show_with_limit(self, employees):
        text = employees.show(limit=1)
        assert "more" in text


class TestKeysAreCanonicalisedAtTheRelationBoundary:
    """A key denotes the same element however the caller spells it: a packed
    char array without its blank padding, an enumeration value by its label.
    ``delete_key``/``find``/... used to miss where ``delete`` (which coerces
    the whole element) hit."""

    @pytest.fixture(params=("memory", "paged"))
    def labelled(self, request):
        schema = RelationSchema(
            "labelled",
            [("code", CharArray(6)), ("level", STATUS), ("n", INTEGER)],
            key=["code", "level"],
        )
        rows = [
            {"code": "abc", "level": "student", "n": 1},
            {"code": "abcdef", "level": "professor", "n": 2},
            {"code": "", "level": "assistant", "n": 3},
        ]
        if request.param == "paged":
            from repro.storage.storedrelation import StoredRelation

            return StoredRelation("labelled", schema, rows, page_capacity=2)
        return Relation("labelled", schema, rows)

    def test_every_lookup_finds_the_unpadded_spelling(self, labelled):
        stored = ("abc   ", STATUS.student)
        for spelling in (("abc", "student"), ("abc", STATUS.student), ("abc   ", "student"), stored):
            assert labelled.find(spelling).n == 1
            assert labelled.fetch(spelling).n == 1
            assert labelled[spelling].n == 1
            assert labelled.contains_key(spelling)
            assert spelling in labelled
            reference = labelled.ref(spelling)
            assert reference.key == stored and reference.deref().n == 1
        assert labelled.find(("", "assistant")).n == 3

    def test_the_bulk_reads_take_any_spelling_and_raise_on_a_miss(self, labelled):
        spellings = [("abc", "student"), ("abcdef", STATUS.professor), ("abc   ", "student")]
        for read in (labelled.find_many, labelled.fetch_many):
            assert [record.n for record in read(spellings)] == [1, 2, 1]
            with pytest.raises(DanglingReferenceError):
                read([("abc", "student"), ("abd", "student")])

    def test_misses_stay_misses(self, labelled):
        for spelling in (("abd", "student"), ("abc", "professor"), ("abc",), ("abc", "ceo"),
                         ("abcdefg", "student"), (7, "student"), "abc"):
            assert labelled.find(spelling) is None
            assert labelled.fetch(spelling) is None
            assert not labelled.contains_key(spelling)
            assert spelling not in labelled
            assert not labelled.delete_key(spelling)
            with pytest.raises(MissingElementError):
                labelled.ref(spelling)
        assert len(labelled) == 3

    def test_delete_key_deletes_what_delete_deletes(self, labelled):
        assert labelled.delete_key(("abc", "student"))
        assert not labelled.delete_key(("abc", "student"))
        assert labelled.delete({"code": "abcdef", "level": "professor", "n": 2})
        assert labelled.delete(("", "assistant"))  # a bare key tuple
        assert labelled.is_empty()
        heap = getattr(labelled, "heap_file", None)
        if heap is not None:
            assert heap.live_count() == 0

    def test_single_component_key_may_be_passed_bare(self):
        relation = Relation(
            "codes", RelationSchema("codes", [("code", CharArray(6)), ("n", INTEGER)], key=["code"]),
            [{"code": "abc", "n": 1}],
        )
        assert relation.find("abc").n == 1
        assert "abc" in relation
        assert relation.delete_key("abc")
        assert relation.is_empty()


#: Chunk sizes: the smallest, the bulk cutoff's edges and the chunk ramp's end.
CHUNK_SIZES = st.sampled_from([0, 1, 2, 3, BULK_ROWS - 1, BULK_ROWS, BULK_ROWS + 1, 1023, 1024, 1025])
#: Few distinct rows, so duplicates fall inside and across chunks.
VALUE_ROWS = st.tuples(st.integers(0, 30), st.sampled_from(["x  ", "yz ", "abc"]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(CHUNK_SIZES.flatmap(lambda n: st.lists(VALUE_ROWS, min_size=n, max_size=n)),
                       max_size=4))
def test_the_bulk_record_path_equals_the_per_row_reference(chunks):
    """``insert_new_rows`` (C-level maps from ``BULK_ROWS`` rows up) and
    ``insert_rows`` store and return what a ``Record.raw`` loop does."""
    schema = RelationSchema("pairs", [("a", INTEGER), ("b", CharArray(3))])
    bulk, distinct, whole = (Relation(name, schema) for name in ("bulk", "distinct", "whole"))
    held: dict = {}
    version = bulk._version
    for chunk in chunks:
        expected, unmet = [], []
        for row in chunk:
            if row not in held:
                held[row] = Record.raw(schema, row)
                expected.append(held[row])
                unmet.append(row)
        version += 1
        # Whole chunks, duplicates and held rows included: every row's record.
        assert [r.values for r in whole.insert_rows(chunk)] == chunk
        assert list(whole._elements.items()) == list(held.items())
        for relation, fresh in ((bulk, bulk.insert_new_rows(chunk)),
                                (distinct, distinct.insert_rows(unmet))):
            assert [r.values for r in fresh] == [r.values for r in expected]
            assert all(r.schema is schema for r in fresh)
            assert [hash(r) for r in fresh] == [hash(r) for r in expected]
            assert list(relation._elements.items()) == list(held.items())
            assert all(relation._elements[r.values] is r for r in fresh)
            assert relation._version == version
