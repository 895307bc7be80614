"""A database saved in the page-capacity snapshot format reopens as its source.

Snapshots written while relations still kept heap pages carry a
``"page_capacity"`` entry per relation; the loader ignores it.  Both
workload databases, with permanent indexes, are written as snapshots,
rewritten into that format and reopened: every relation holds its source's
elements in its source's iteration order, the index catalog is the same,
and every named query of the workload returns its source's rows in its
source's order.
"""

from __future__ import annotations

import json

import pytest

from repro import QueryEngine
from repro.relational.database import Database
from repro.storage.snapshot import snapshot_path, write_snapshot
from repro.workloads.bibliography import (
    bibliography_named_queries,
    build_bibliography_database,
    create_standard_indexes,
)
from repro.workloads.queries import all_named_queries
from repro.workloads.university import build_university_database

UNIVERSITY_INDEXES = (
    ("employees", "enr", "="),
    ("papers", "pyear", "<="),
    ("courses", "clevel", "<="),
    ("timetable", "tenr", "="),
)


def university_source() -> Database:
    database = build_university_database(scale=2)
    for relation_name, field_name, operator in UNIVERSITY_INDEXES:
        database.create_index(relation_name, field_name, operator=operator)
    return database


def bibliography_source() -> Database:
    database = build_bibliography_database(scale=1)
    create_standard_indexes(database)
    return database


SOURCES = {"university": university_source, "bibliography": bibliography_source}
QUERIES = {
    "university": all_named_queries(),
    "bibliography": bibliography_named_queries(),
}
CELLS = [(workload, name) for workload in sorted(QUERIES) for name in sorted(QUERIES[workload])]


def reopened_in_the_page_capacity_format(source: Database, directory: str) -> Database:
    write_snapshot(source, directory, last_lsn=0, next_txid=1)
    path = snapshot_path(directory)
    with open(path) as handle:
        snapshot = json.load(handle)
    assert snapshot["relations"], "nothing to rewrite"
    for capacity, entry in enumerate(snapshot["relations"], start=2):
        entry["page_capacity"] = capacity
    with open(path, "w") as handle:
        json.dump(snapshot, handle)
    return Database.open(directory)


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    """``workload -> (source, reopened)``."""
    opened = {}
    for workload, build in SOURCES.items():
        source = build()
        directory = str(tmp_path_factory.mktemp(workload))
        opened[workload] = source, reopened_in_the_page_capacity_format(source, directory)
    yield opened
    for _, reopened in opened.values():
        reopened.close()


def _catalog(database: Database) -> list[tuple[str, str, str]]:
    return sorted(
        (name, field, type(database.index_for(name, field)).__name__)
        for name, field in database.indexes()
    )


@pytest.mark.parametrize("workload", sorted(SOURCES))
def test_the_reopened_database_holds_its_sources_contents(pairs, workload):
    source, reopened = pairs[workload]
    assert reopened.recovery_report.clean, reopened.recovery_report.describe()
    assert reopened.relation_names() == source.relation_names()
    for name in source.relation_names():
        assert reopened.relation(name).schema == source.relation(name).schema, name
        assert [r.values for r in reopened.relation(name).elements()] == [
            r.values for r in source.relation(name).elements()
        ], name
    assert _catalog(reopened) == _catalog(source)


@pytest.mark.parametrize("workload, query_name", CELLS)
def test_every_named_query_answers_as_on_its_source(pairs, workload, query_name):
    source, reopened = pairs[workload]
    query = QUERIES[workload][query_name]
    expected = QueryEngine(source).run(query)
    result = QueryEngine(reopened).run(query)
    assert [r.values for r in result.relation] == [r.values for r in expected.relation]
    assert result.access_paths == expected.access_paths
