"""A scan's lifetime on a relation that is its element dict.

``Relation.scan`` is a generator: under the streaming executor it can stay
parked for the whole life of a pipeline while other operators scan other
relations and writers change the one it reads.  What it yields is fixed
when it starts — the elements in iteration order at its first pull — and
the accounting is one scan per call and one element read per element
yielded.  Closing a pipeline early ends the scan behind it.  Each case runs
on a bare relation and on one made through a database's catalog (which
carries the database's statistics and its snapshot registry).
"""

from __future__ import annotations

import inspect

import pytest

from repro.engine.stream import RowStream
from repro.relational.algebra import stream_natural_join
from repro.relational.database import Database
from repro.relational.record import Record
from repro.relational.relation import Relation
from repro.relational.statistics import AccessStatistics
from repro.types.scalar import INTEGER
from repro.types.schema import RelationSchema

SOURCES = ("bare", "catalog")


def make(source: str, name: str, fields: list[str], rows: list[tuple], key=None) -> Relation:
    if source == "catalog":
        database = Database("scans")
        return database.create_relation(
            name, [(f, INTEGER) for f in fields], key=key, elements=rows
        )
    schema = RelationSchema(name, [(f, INTEGER) for f in fields], key=key)
    return Relation(name, schema, rows, tracker=AccessStatistics())


def counters(relation: Relation) -> tuple[int, int]:
    return relation.tracker.scans(relation.name), relation.tracker.elements_read(relation.name)


@pytest.mark.parametrize("source", SOURCES)
def test_a_parked_scan_reads_every_element_while_other_relations_are_scanned(source):
    big = make(source, "big", ["a"], [(i,) for i in range(40)])
    other = make(source, "other", ["b"], [(i,) for i in range(40)])
    scan = big.scan()
    first = next(scan)
    for _ in range(10):
        assert [record.b for record in other.scan()] == list(range(40))
    assert [first.a] + [record.a for record in scan] == list(range(40))
    assert counters(big) == (1, 40)
    assert counters(other) == (10, 400)


@pytest.mark.parametrize("source", SOURCES)
def test_closing_a_scan_early_ends_it_and_charges_only_what_it_yielded(source):
    relation = make(source, "r", ["a"], [(i,) for i in range(12)])
    scan = relation.scan()
    assert [next(scan).a for _ in range(3)] == [0, 1, 2]
    assert inspect.getgeneratorstate(scan) == inspect.GEN_SUSPENDED
    scan.close()
    assert inspect.getgeneratorstate(scan) == inspect.GEN_CLOSED
    assert counters(relation) == (1, 3)


@pytest.mark.parametrize("source", SOURCES)
def test_a_scan_parked_across_deletes_reads_the_elements_it_started_on(source):
    relation = make(source, "numbers", ["n"], [(n,) for n in range(6)])
    scan = relation.scan()
    assert next(scan).n == 0
    for n in (0, 1, 2, 3):  # the element under the scan, and the next three
        assert relation.delete_key(n)
    assert [record.n for record in scan] == [1, 2, 3, 4, 5]
    assert [record.n for record in relation.scan()] == [4, 5]
    assert relation.fetch(4).n == 4 and relation.fetch(3) is None


@pytest.mark.parametrize("source", SOURCES)
def test_assign_during_an_open_scan_leaves_later_scans_the_new_contents(source):
    relation = make(source, "r", ["a"], [(0,), (1,), (2,)])
    scan = relation.scan()
    assert next(scan).a == 0
    relation.assign([{"a": 100}, {"a": 101}, {"a": 102}])
    scan.close()
    assert [record.a for record in relation.scan()] == [100, 101, 102]
    assert relation.fetch(1) is None and relation.fetch(101).a == 101


def test_insert_raw_overwrites_in_place_and_keeps_the_order():
    schema = RelationSchema("pairs", [("k", INTEGER), ("v", INTEGER)], key=["k"])
    relation = Relation("pairs", schema, [{"k": k, "v": k} for k in range(3)])
    relation.insert_raw(Record(schema, {"k": 0, "v": 9}))
    assert [record.values for record in relation.scan()] == [(0, 9), (1, 1), (2, 2)]
    assert len(relation) == 3 and relation.fetch(0).v == 9


def test_window_churn_keeps_only_the_window_in_insertion_order():
    """``durable_writes``' shape in miniature: insert one, retire the oldest
    of a window of ten, two thousand times."""
    relation = Relation("numbers", RelationSchema("numbers", [("n", INTEGER)]))
    for n in range(2_000):
        relation.insert({"n": n})
        if n >= 10:
            assert relation.delete_key(n - 10)
    assert [record.n for record in relation.scan()] == list(range(1_990, 2_000))
    assert relation.keys() == [(n,) for n in range(1_990, 2_000)]


class TestStreamedJoinInterleavedWithScans:
    """A long streamed join, drained slowly while other scans run in between,
    returns the materialized join; abandoning it ends the scan it reads."""

    def test_interleaved_streamed_join_matches_materialized(self):
        tracker = AccessStatistics()
        orders = Relation(
            "orders", RelationSchema("orders", [("cust", INTEGER), ("item", INTEGER)]),
            [(i % 7, i) for i in range(48)], tracker=tracker,
        )
        customers = Relation(
            "customers", RelationSchema("customers", [("cust", INTEGER), ("tier", INTEGER)]),
            [(i, i % 3) for i in range(7)], tracker=tracker,
        )
        noise = Relation(
            "noise", RelationSchema("noise", [("x", INTEGER)]),
            [(i,) for i in range(48)], tracker=tracker,
        )
        expected = stream_natural_join(RowStream.from_relation(orders), customers).materialize()

        scan = orders.scan()
        stream = stream_natural_join(
            RowStream(orders.schema, (record.values for record in scan), label="orders"),
            customers,
        )
        iterator = iter(stream)
        rows = []
        for _ in range(10):
            rows.append(next(iterator))
            assert sum(1 for _ in noise.scan()) == 48
        assert inspect.getgeneratorstate(scan) == inspect.GEN_SUSPENDED
        rows.extend(iterator)
        assert inspect.getgeneratorstate(scan) == inspect.GEN_CLOSED
        assert sorted(rows) == sorted(record.values for record in expected)
        assert tracker.scans("noise") == 10 and tracker.elements_read("noise") == 480

    def test_an_abandoned_join_pipeline_ends_its_scan(self):
        left = Relation(
            "l", RelationSchema("l", [("a", INTEGER), ("b", INTEGER)]), [(i, i) for i in range(24)]
        )
        right = Relation(
            "r", RelationSchema("r", [("b", INTEGER), ("c", INTEGER)]), [(i, i) for i in range(24)]
        )
        ended: list[bool] = []

        def rows():
            try:
                for record in left.scan():
                    yield record.values
            finally:
                ended.append(True)

        stream = stream_natural_join(RowStream(left.schema, rows(), label="l"), right)
        iterator = iter(stream)
        next(iterator)
        assert ended == []  # parked on the scan
        iterator.close()  # pipeline shutdown reaches the scan
        assert ended == [True]
