"""What relations' heap pages left behind keeps working for its callers.

Relations hold no pages, but callers written against the paged backend
still pass ``paged=`` and read the page counters, the end-to-end harness
among them.  Until those names are dropped together:

* every database builder accepts ``paged=`` and ignores it — either value
  builds the default call's contents, in its order, in plain relations;
* ``pages_read``, ``page_hits``, ``page_misses`` and ``pages_skipped`` stay
  in every statistics snapshot and read 0 after any operation, and the
  summary prints no page line;
* the harness's ``live_collection_pages`` runs a live collection and
  reports no page traffic.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.tracing import live_collection_pages
from repro import (
    Database,
    QueryEngine,
    Relation,
    bibliography_database,
    build_bibliography_database,
    build_university_database,
    connect,
    figure1_database,
)
from repro.transform.pipeline import prepare_query
from repro.types.scalar import INTEGER
from repro.workloads.queries import all_named_queries

PAGE_COUNTERS = ("pages_read", "page_hits", "page_misses", "pages_skipped")


def _empty_catalog(paged: bool | None = None) -> Database:
    database = Database("plain") if paged is None else Database("plain", paged=paged)
    database.create_relation("r", [("k", INTEGER)], key=["k"], elements=[(3,), (1,), (2,)])
    return database


BUILDERS = {
    "Database": _empty_catalog,
    "figure1_database": figure1_database,
    "build_university_database": lambda **paged: build_university_database(scale=2, **paged),
    "bibliography_database": bibliography_database,
    "build_bibliography_database": lambda **paged: build_bibliography_database(scale=1, **paged),
}


def _contents(database: Database) -> dict[str, list[tuple]]:
    return {
        name: [record.values for record in database.relation(name).elements()]
        for name in database.relation_names()
    }


@pytest.mark.parametrize("paged", (True, False), ids=("paged=True", "paged=False"))
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_paged_is_accepted_and_ignored(builder, paged):
    build = BUILDERS[builder]
    database = build(paged=paged)
    assert _contents(database) == _contents(build())
    assert all(type(relation) is Relation for relation in database.relations())
    assert not hasattr(database, "paged")


def _assert_no_page_traffic(statistics: dict) -> None:
    assert {name: statistics[name] for name in PAGE_COUNTERS} == dict.fromkeys(PAGE_COUNTERS, 0)


_POINT = "[<e.ename> OF EACH e IN employees: (e.enr = $enr)]"
_JOIN = all_named_queries()["example_2_1"]


def _engine_scan(database, tmp_path):
    result = QueryEngine(database).run(_JOIN)
    _assert_no_page_traffic(result.statistics)
    return "elements_read"


def _engine_probe(database, tmp_path):
    result = QueryEngine(database).run("[<e.ename> OF EACH e IN employees: (e.enr = 3)]")
    _assert_no_page_traffic(result.statistics)
    return "index_probes"


def _pinned_cursor(database, tmp_path):
    with connect(database) as connection:
        cursor = connection.execute(_JOIN)
        assert cursor.fetchall()
        _assert_no_page_traffic(cursor.statistics)
    return "elements_read"


def _prepared_point_query(database, tmp_path):
    with connect(database) as connection:
        prepared = connection.prepare(_POINT)
        for enr in (1, 2, 3):
            assert len(prepared.execute({"enr": enr}).relation) == 1
    return "plan_cache_misses"


def _streamed_join_closed_early(database, tmp_path):
    with connect(database) as connection:
        cursor = connection.session().cursor()
        cursor.execute(_JOIN)
        assert cursor.fetchone() is not None
        cursor.close()
    return "elements_read"


def _fetch_many(database, tmp_path):
    employees = database.relation("employees")
    keys = employees.keys()[:5]
    assert [record.enr for record in employees.fetch_many(keys)] == [key[0] for key in keys]
    return "elements_read"


def _commit(database, tmp_path):
    with connect(database).session() as session:
        database.relation("employees").delete_key(database.relation("employees").keys()[0])
        session.commit()
    return "deletes"


def _rollback(database, tmp_path):
    with connect(database).session() as session:
        database.relation("employees").delete_key(database.relation("employees").keys()[0])
        session.rollback()
    return "deletes"


def _pin_beside_a_commit(database, tmp_path):
    expected = sorted(record.values for record in QueryEngine(database).run(_JOIN).relation)
    with connect(database) as connection:
        cursor = connection.cursor()
        cursor.execute(_JOIN)  # pins the state of this moment
        with connection.session() as session:
            database.relation("timetable").clear()
            session.commit()
        assert sorted(record.values for record in cursor.fetchall()) == expected
        _assert_no_page_traffic(cursor.statistics)
        assert len(cursor.execute(_JOIN).fetchall()) < len(expected)
    return "elements_read"


def _assign_and_insert_all(database, tmp_path):
    courses = database.relation("courses")
    records = courses.elements()
    with connect(database).session() as session:
        courses.assign([])
        courses.insert_all(records)
        session.commit()
    assert courses.elements() == records
    return "inserts"


def _explain_analyze(database, tmp_path):
    report = QueryEngine(database).explain(
        "[<e.ename> OF EACH e IN employees: (e.enr = 5)]", analyze=True
    )
    assert "index probes=" in report and "pages skipped=" not in report
    return "index_probes"


def _index_ddl(database, tmp_path):
    database.drop_index("employees", "enr")
    database.create_index("employees", "enr", operator="<=")
    assert QueryEngine(database).run("[<e.ename> OF EACH e IN employees: (e.enr <= 3)]").relation
    return "index_probes"


def _checkpoint_and_reopen(database, tmp_path):
    on_disk = Database.open(tmp_path)
    on_disk.create_relation(
        "items", [("k", INTEGER)], key=["k"], elements=[(k,) for k in range(10)]
    )
    on_disk.checkpoint()
    _assert_no_page_traffic(on_disk.statistics.as_dict())
    assert on_disk.statistics.checkpoints > 0
    on_disk.close()
    reopened = Database.open(tmp_path)
    try:
        assert len(reopened.relation("items")) == 10
        _assert_no_page_traffic(reopened.statistics.as_dict())
    finally:
        reopened.close()
    return None


OPERATIONS = {
    "engine_scan": _engine_scan,
    "engine_probe": _engine_probe,
    "pinned_cursor": _pinned_cursor,
    "prepared_point_query": _prepared_point_query,
    "streamed_join_closed_early": _streamed_join_closed_early,
    "fetch_many": _fetch_many,
    "commit": _commit,
    "rollback": _rollback,
    "pin_beside_a_commit": _pin_beside_a_commit,
    "assign_and_insert_all": _assign_and_insert_all,
    "explain_analyze": _explain_analyze,
    "index_ddl": _index_ddl,
    "checkpoint_and_reopen": _checkpoint_and_reopen,
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_the_page_counters_read_zero_after(operation, tmp_path):
    database = build_university_database(scale=2)
    database.create_index("employees", "enr")
    database.reset_statistics()
    moved = OPERATIONS[operation](database, tmp_path)
    statistics = database.statistics.as_dict()
    if moved is not None:  # the operation did its work...
        assert statistics.get(moved, 0) > 0 or any(
            counters.get(moved, 0) > 0 for counters in statistics["relations"].values()
        ), (moved, statistics)
    _assert_no_page_traffic(statistics)  # ...and read no page
    assert "pages" not in database.statistics.summary()


@pytest.mark.parametrize("query_name", sorted(all_named_queries()))
def test_live_collection_pages_reports_no_page_traffic(query_name):
    database = figure1_database()
    with connect(database) as connection:
        plan = prepare_query(all_named_queries()[query_name], database, connection.service.options)
        database.reset_statistics()
        assert live_collection_pages(connection, plan) == (0, 0, 0)
        read = sum(
            counters["elements_read"]
            for counters in database.statistics.as_dict()["relations"].values()
        )
        # A plan with a constant matrix collects nothing; any other reads its ranges.
        assert (read > 0) == (plan.constant is None), read
