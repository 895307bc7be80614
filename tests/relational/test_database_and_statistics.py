"""Unit tests for the database catalog and the access statistics."""

import pytest

from repro.errors import CatalogError
from repro.relational.database import Database
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.statistics import COLLECTION, COMBINATION, AccessStatistics
from repro.relational.relation import Relation
from repro.types.scalar import INTEGER


@pytest.fixture
def database() -> Database:
    db = Database("test")
    employees = db.create_relation("employees", [("enr", INTEGER), ("boss", INTEGER)], key=["enr"])
    for enr in range(1, 6):
        employees.insert({"enr": enr, "boss": enr // 2})
    db.create_relation("projects", [("pnr", INTEGER)], key=["pnr"])
    return db


class TestCatalog:
    def test_create_and_lookup(self, database):
        assert database.relation("employees").name == "employees"
        assert database["projects"].is_empty()
        assert "employees" in database

    def test_unpaged_database_uses_plain_relations(self):
        # ``paged`` is accepted and ignored: every relation is a plain Relation.
        for db in (Database("plain"), Database("plain", paged=True)):
            relation = db.create_relation("r", [("a", INTEGER)])
            assert type(relation) is Relation
            assert not hasattr(db, "paged")

    def test_duplicate_relation_raises(self, database):
        with pytest.raises(CatalogError):
            database.create_relation("employees", [("enr", INTEGER)])

    def test_unknown_relation_raises(self, database):
        with pytest.raises(CatalogError):
            database.relation("nonexistent")

    def test_drop_relation(self, database):
        database.drop_relation("projects")
        assert not database.has_relation("projects")
        with pytest.raises(CatalogError):
            database.drop_relation("projects")

    def test_cardinalities(self, database):
        assert database.cardinalities() == {"employees": 5, "projects": 0}

    def test_relation_names_and_iteration(self, database):
        assert database.relation_names() == ["employees", "projects"]
        assert len(list(database.relations())) == 2

    def test_add_external_relation(self, database):
        from repro.relational.relation import Relation
        from repro.types.schema import RelationSchema

        extra = Relation("extra", RelationSchema("extra", [("x", INTEGER)]))
        database.add_relation(extra)
        assert database.relation("extra") is extra
        assert extra.tracker is database.statistics

    def test_describe_lists_relations_and_indexes(self, database):
        database.create_index("employees", "boss")
        text = database.describe()
        assert "employees" in text
        assert "employees.boss" in text


class TestPermanentIndexes:
    def test_create_and_lookup_index(self, database):
        index = database.create_index("employees", "boss")
        assert isinstance(index, HashIndex)
        found = database.index_for("employees", "boss")
        assert found._entries is index._entries and found.tracker is database.statistics
        assert database.index_for("employees", "enr") is None

    def test_sorted_index_for_range_operator(self, database):
        index = database.create_index("employees", "boss", operator="<=")
        assert isinstance(index, SortedIndex)

    def test_index_probe(self, database):
        index = database.create_index("employees", "boss")
        assert len(index.probe_operator("=", 1)) == 2  # employees 2 and 3 have boss 1

    def test_a_write_is_seen_by_the_next_index_for_without_a_catalog_change(self, database):
        index = database.create_index("employees", "boss")
        version = database.schema_version
        database.relation("employees").insert({"enr": 10, "boss": 1})
        assert len(index.probe_operator("=", 1)) == 2  # the writer touched no index
        derived = database.index_for("employees", "boss")
        assert len(derived.probe_operator("=", 1)) == 3  # ... the next reader derives the new version's
        assert database.index_for("employees", "boss")._entries is derived._entries  # once
        assert database.schema_version == version

    def test_drop_relation_drops_its_indexes(self, database):
        database.create_index("employees", "boss")
        database.drop_relation("employees")
        assert database.index_for("employees", "boss") is None

    def test_drop_index(self, database):
        database.create_index("employees", "boss")
        database.drop_index("employees", "boss")
        assert database.index_for("employees", "boss") is None


class TestStatistics:
    def test_scans_and_elements(self, database):
        list(database.relation("employees").scan())
        stats = database.statistics
        assert stats.scans("employees") == 1
        assert stats.elements_read("employees") == 5
        assert stats.elements_read() == 5
        assert stats.total_scans() == 1

    def test_reset(self, database):
        list(database.relation("employees").scan())
        database.reset_statistics()
        assert database.statistics.total_scans() == 0
        assert database.statistics.intermediate_tuples == 0

    def test_phase_attribution(self):
        stats = AccessStatistics()
        with stats.phase(COLLECTION):
            stats.record_element_read("r", 3)
        with stats.phase(COMBINATION):
            stats.record_element_read("r", 2)
        stats.record_element_read("r", 10)
        assert stats.phase_elements(COLLECTION) == 3
        assert stats.phase_elements(COMBINATION) == 2
        assert stats.elements_read("r") == 15

    def test_nested_phases_restore_previous(self):
        stats = AccessStatistics()
        with stats.phase(COLLECTION):
            with stats.phase(COMBINATION):
                assert stats.current_phase == COMBINATION
            assert stats.current_phase == COLLECTION
        assert stats.current_phase is None

    def test_intermediate_and_page_counters(self):
        stats = AccessStatistics()
        stats.record_intermediate(10)
        stats.record_intermediate(5, relations=2)
        snapshot = stats.as_dict()
        assert snapshot["intermediate_tuples"] == 15
        assert snapshot["intermediate_relations"] == 3
        # Relations hold no pages: the page counters stay, and read 0.
        for name in ("pages_read", "page_hits", "page_misses", "pages_skipped"):
            assert snapshot[name] == 0
        assert "pages:" not in stats.summary()

    def test_summary_mentions_relations(self):
        stats = AccessStatistics()
        stats.record_scan("employees")
        assert "employees" in stats.summary()

    def test_insert_delete_counters(self, database):
        employees = database.relation("employees")
        employees.insert({"enr": 99, "boss": 1})
        employees.delete_key(99)
        counters = database.statistics.as_dict()["relations"]["employees"]
        assert counters["inserts"] >= 1
        assert counters["deletes"] == 1


class TestCounterReflection:
    """reset() and as_dict() must cover every public numeric counter.

    These tests enumerate the counters by reflection, so a counter added to
    ``AccessStatistics.__init__`` (like the service layer's plan-cache
    hits/misses) can never silently escape the reset or the snapshot.
    """

    @staticmethod
    def _numeric_counters(stats: AccessStatistics) -> list[str]:
        return [
            name
            for name, value in vars(stats).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ]

    def test_reset_zeroes_every_public_numeric_field(self):
        stats = AccessStatistics()
        names = self._numeric_counters(stats)
        assert names, "expected public numeric counters"
        for name in names:
            setattr(stats, name, 7)
        stats.record_scan("employees")
        stats.reset()
        for name in names:
            assert getattr(stats, name) == 0, name
        assert stats.as_dict()["relations"] == {}

    def test_snapshot_covers_every_public_numeric_field(self):
        stats = AccessStatistics()
        snapshot = stats.as_dict()
        for name in self._numeric_counters(stats):
            assert name in snapshot, name

    def test_plan_cache_counters_participate(self):
        stats = AccessStatistics()
        stats.record_plan_cache(hit=True)
        stats.record_plan_cache(hit=False)
        snapshot = stats.as_dict()
        assert snapshot["plan_cache_hits"] == 1
        assert snapshot["plan_cache_misses"] == 1
        stats.reset()
        assert stats.plan_cache_hits == 0
        assert stats.plan_cache_misses == 0

    def test_cost_model_counters_participate(self):
        # No summary is maintained, so nothing counts rebuilds; the counter
        # stays a field the benchmark reports, and snapshots and resets cover it.
        stats = AccessStatistics()
        assert stats.as_dict()["histogram_rebuilds"] == 0
        stats.histogram_rebuilds += 1
        snapshot = stats.as_dict()
        assert snapshot["histogram_rebuilds"] == 1
        stats.reset()
        assert stats.histogram_rebuilds == 0

    def test_mutation_epoch_survives_reset(self):
        stats = AccessStatistics()
        epoch = stats.mutation_epoch
        stats.record_insert("employees")
        stats.record_delete("employees")
        stats.record_mutation()
        assert stats.mutation_epoch == epoch + 3
        stats.reset()
        assert stats.mutation_epoch == epoch + 3
        assert "mutation_epoch" not in stats.as_dict()


class TestVersioning:
    def test_schema_version_bumps_on_catalog_mutations(self, database):
        version = database.schema_version
        database.create_relation("audit", [("anr", INTEGER)], key=["anr"])
        assert database.schema_version > version
        version = database.schema_version
        database.create_index("audit", "anr")
        assert database.schema_version > version
        version = database.schema_version
        database.drop_index("audit", "anr")
        assert database.schema_version > version
        version = database.schema_version
        database.drop_relation("audit")
        assert database.schema_version > version

    def test_dropping_a_missing_index_does_not_bump(self, database):
        version = database.schema_version
        database.drop_index("employees", "nonexistent")
        assert database.schema_version == version

    def test_exactly_one_bump_per_catalog_change(self, database):
        """Regression: each catalog operation bumps ``schema_version`` by
        exactly 1, including dropping a relation that carries indexes."""
        database.create_relation("audit", [("anr", INTEGER), ("ax", INTEGER)], key=["anr"])
        version = database.schema_version
        database.create_index("audit", "anr")
        assert database.schema_version == version + 1
        database.create_index("audit", "ax")
        assert database.schema_version == version + 2
        database.create_index("audit", "anr")  # re-create: one change again
        assert database.schema_version == version + 3
        database.drop_relation("audit")  # relation + two indexes: ONE change
        assert database.schema_version == version + 4

    def test_data_version_tracks_relation_mutations(self, database):
        employees = database.relation("employees")
        version = database.data_version
        employees.insert({"enr": 77, "boss": 1})
        assert database.data_version > version
        version = database.data_version
        employees.delete_key(77)
        assert database.data_version > version
        version = database.data_version
        employees.assign(list(employees.elements()))
        assert database.data_version > version
