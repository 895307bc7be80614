"""Unit tests for relation schemas."""

import pytest

from repro.errors import SchemaError, ValidationError
from repro.types.scalar import INTEGER, CharArray, Enumeration, Subrange
from repro.types.schema import Field, RelationSchema

STATUS = Enumeration("statustype", ("student", "technician", "assistant", "professor"))


@pytest.fixture
def employees_schema() -> RelationSchema:
    return RelationSchema(
        "employees",
        [
            ("enr", Subrange(1, 99, "enumbertype")),
            ("ename", CharArray(10, "nametype")),
            ("estatus", STATUS),
        ],
        key=["enr"],
    )


class TestConstruction:
    def test_field_names_in_order(self, employees_schema):
        assert employees_schema.field_names == ("enr", "ename", "estatus")

    def test_key_defaults_to_all_fields(self):
        schema = RelationSchema("pairs", [("a", INTEGER), ("b", INTEGER)])
        assert schema.key == ("a", "b")

    def test_mapping_fields_accepted(self):
        schema = RelationSchema("m", {"x": INTEGER, "y": INTEGER}, key=["x"])
        assert schema.field_names == ("x", "y")

    def test_field_objects_accepted(self):
        schema = RelationSchema("f", [Field("x", INTEGER)])
        assert schema.field_type("x") is INTEGER

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("empty", [])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("dup", [("a", INTEGER), ("a", INTEGER)])

    def test_unknown_key_component_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("bad", [("a", INTEGER)], key=["b"])

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("bad", [("a", INTEGER)], key=[])

    def test_repeated_key_component_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("bad", [("a", INTEGER)], key=["a", "a"])

    def test_invalid_identifier_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("bad", [("not valid", INTEGER)])


class TestLookups:
    def test_contains_and_has_field(self, employees_schema):
        assert "ename" in employees_schema
        assert employees_schema.has_field("ename")
        assert not employees_schema.has_field("salary")

    def test_field_type(self, employees_schema):
        assert employees_schema.field_type("estatus") is STATUS

    def test_field_type_unknown_raises(self, employees_schema):
        with pytest.raises(SchemaError):
            employees_schema.field_type("salary")

    def test_field_position(self, employees_schema):
        assert employees_schema.field_position("estatus") == 2

    def test_len_and_iter(self, employees_schema):
        assert len(employees_schema) == 3
        assert [f.name for f in employees_schema] == ["enr", "ename", "estatus"]


class TestDerivedSchemas:
    def test_project(self, employees_schema):
        projected = employees_schema.project(["ename"])
        assert projected.field_names == ("ename",)
        assert projected.key == ("ename",)

    def test_project_unknown_field_raises(self, employees_schema):
        with pytest.raises(SchemaError):
            employees_schema.project(["salary"])

    def test_rename(self, employees_schema):
        renamed = employees_schema.rename({"enr": "id"})
        assert renamed.field_names == ("id", "ename", "estatus")
        assert renamed.key == ("id",)

    def test_concat(self, employees_schema):
        other = RelationSchema("extra", [("salary", INTEGER)])
        combined = employees_schema.concat(other)
        assert combined.field_names == ("enr", "ename", "estatus", "salary")

    def test_concat_clash_raises(self, employees_schema):
        with pytest.raises(SchemaError):
            employees_schema.concat(employees_schema)


class TestValues:
    def test_coerce_values_orders_and_coerces(self, employees_schema):
        values = employees_schema.coerce_values(
            {"estatus": "professor", "enr": 7, "ename": "Jarke"}
        )
        assert values[0] == 7
        assert values[1] == "Jarke".ljust(10)
        assert values[2] == STATUS.professor

    def test_coerce_values_missing_raises(self, employees_schema):
        with pytest.raises(SchemaError):
            employees_schema.coerce_values({"enr": 7})

    def test_coerce_values_extra_raises(self, employees_schema):
        with pytest.raises(SchemaError):
            employees_schema.coerce_values(
                {"enr": 7, "ename": "x", "estatus": "student", "salary": 1}
            )

    def test_coerce_values_bad_type_raises(self, employees_schema):
        with pytest.raises(ValidationError):
            employees_schema.coerce_values({"enr": 7, "ename": "x", "estatus": "ceo"})

    def test_key_of_mapping_and_sequence(self, employees_schema):
        assert employees_schema.key_of({"enr": 3, "ename": "x", "estatus": "student"}) == (3,)
        assert employees_schema.key_of((3, "x", STATUS.student)) == (3,)
        assert employees_schema.key_of([3, "x", STATUS.student]) == (3,)

    def test_keys_of_is_key_of_in_bulk(self, employees_schema):
        rows = [(3, "x", STATUS.student), (9, "y", STATUS.professor)]
        assert employees_schema.keys_of(rows) == [(3,), (9,)]
        composite = RelationSchema(
            "timetable", [("tenr", INTEGER), ("tcnr", INTEGER), ("tday", INTEGER)],
            key=["tcnr", "tenr"],
        )
        rows = [(1, 2, 3), (4, 5, 6)]
        assert composite.keys_of(rows) == [composite.key_of(row) for row in rows]
        assert composite.keys_of([]) == []

    def test_field_names_are_stored_not_rebuilt(self, employees_schema):
        assert employees_schema.field_names is employees_schema.field_names
        assert employees_schema == RelationSchema(
            "employees", employees_schema.fields, key=employees_schema.key
        )

    def test_describe_mentions_key_and_fields(self, employees_schema):
        text = employees_schema.describe()
        assert "RELATION <enr>" in text
        assert "estatus" in text

    def test_canonical_key_coerces_each_component_through_its_type(self):
        labelled = RelationSchema(
            "labelled",
            [("code", CharArray(6)), ("level", STATUS), ("n", INTEGER), ("note", CharArray(3))],
            key=["level", "code"],
        )
        canonical = labelled.canonical_key(("professor", "abc"))
        assert canonical == (STATUS.professor, "abc   ")
        assert isinstance(canonical[0], type(STATUS.professor))
        # Already canonical: the same values come back.
        assert labelled.canonical_key(canonical) == canonical
        assert labelled.canonical_key([STATUS.student, "abcdef"]) == (STATUS.student, "abcdef")

    def test_canonical_key_rejects_what_is_not_a_key(self, employees_schema):
        with pytest.raises(ValidationError):
            employees_schema.canonical_key((1, 2))       # wrong arity
        with pytest.raises(ValidationError):
            employees_schema.canonical_key(("one",))     # ill-typed
        with pytest.raises(ValidationError):
            employees_schema.canonical_key((100,))       # outside the subrange
