"""Permanent indexes are views: every reader derives one, no writer maintains one.

An index is a pure function of its relation's elements (Figure 2's
``ind_t_cnr := [<t.tcnr, @t> OF EACH t IN timetable: true]``), so every pin
derives a catalogued index by one rule for the contents version it sees.
The property drives random inserts, deletes, raw overwrites, assigns and
clears, transaction boundaries (commit and rollback) and index DDL — inside
a transaction too — and checks after every step, for the engine door's pin
(the statement pin inside a transaction), a fresh pin, a statement pin of
the open transaction and a pin held from an earlier step:

* every probe, with every operator and value, equals a brute-force filter
  of that source's own contents — an ``=`` probe in that source's scan
  order, the fetched row order of a Strategy 3 point read;
* size and ``distinct_values()`` are the brute-force counts;
* nothing charges ``index_maintenance_ops``: no writer maintains an index,
  and the catalog keeps no entries to re-derive.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.relational.database import Database
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.record import Record
from repro.types.scalar import INTEGER, Subrange, compare_values

_SMALL = Subrange(0, 9, "small")
_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")
#: Index DDL draws its operator here: ``=``/``<>`` make a hash index, the
#: ordering operators a sorted one.
_DDL_OPERATORS = ("=", "<>", "<=", ">")

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert", "delete", "raw", "assign", "clear",
             "begin", "commit", "rollback", "index", "pin")
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=30,
)


def _make_database(paged: bool = True) -> Database:
    database = Database("derivation", paged=paged)
    database.create_relation("r", [("k", INTEGER), ("v", _SMALL)], key=["k"])
    database.create_index("r", "v")                 # hash
    database.create_index("r", "k", operator="<=")  # sorted
    return database


def _contents(relation) -> dict[int, int]:
    return {record["k"]: record["v"] for record in relation}


def _assert_indexes_exact(source, contents: dict[int, int]) -> None:
    """Every index ``source`` offers answers like a filter of ``contents``."""
    assert _contents(source.relation("r")) == contents
    scan_order = [record["k"] for record in source.relation("r")]
    for relation_name, field_name in source.indexes():
        index = source.index_for(relation_name, field_name)
        values = {key: key if field_name == "k" else value for key, value in contents.items()}
        assert (len(index), index.distinct_values()) == (len(values), len(set(values.values())))
        for op in _OPERATORS:
            for probe in range(-1, 11):
                want = [(key,) for key in scan_order if compare_values(op, values[key], probe)]
                got = index.probe_operator(op, probe)
                if op != "=":
                    got, want = sorted(got), sorted(want)
                assert got == want, (field_name, op, probe)


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_live_and_pinned_indexes_equal_a_filter_of_their_own_contents(backend, steps):
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    statistics = database.statistics
    connection = connect(database)
    session = connection.session()
    live: dict[int, int] = {}
    committed: dict[int, int] | None = None  # the pre-transaction image, in a transaction
    held = None  # (pin from an earlier step, the contents it must hold)
    try:
        for op, key, value in steps:
            maintenance = statistics.index_maintenance_ops
            if op == "insert":
                if live.get(key, value) == value:
                    relation.insert({"k": key, "v": value})
                    live[key] = value
            elif op == "delete":
                relation.delete_key(key)
                live.pop(key, None)
            elif op == "raw":
                relation.insert_raw(Record(relation.schema, {"k": key, "v": value}))
                live[key] = value
            elif op == "assign":
                live[key] = value
                relation.assign([{"k": k, "v": v} for k, v in sorted(live.items())])
            elif op == "clear":
                relation.clear()
                live.clear()
            elif op == "begin":
                if committed is None:
                    session.begin()
                    committed = dict(live)
            elif op == "commit":
                if committed is not None:
                    session.commit()
                    committed = None
            elif op == "rollback":
                if committed is not None:
                    session.rollback()
                    live, committed = committed, None
            elif op == "index":  # DDL is not transactional
                field_name = ("v", "k")[key % 2]
                if ("r", field_name) in set(database.indexes()) and value < 5:
                    database.drop_index("r", field_name)
                else:
                    database.create_index("r", field_name, _DDL_OPERATORS[value % 4])
            else:  # pin
                if held is not None:
                    held[0].release()
                held = database.pin_snapshot(), dict(committed if committed is not None else live)
            assert statistics.index_maintenance_ops == maintenance, op

            with database._door_pin() as door:
                _assert_indexes_exact(door, live)
            with database.pin_snapshot() as pin:
                _assert_indexes_exact(pin, committed if committed is not None else live)
            if session.in_transaction:
                with database.pin_snapshot(session.journal) as statement:
                    _assert_indexes_exact(statement, live)
            if held is not None:
                _assert_indexes_exact(*held)
    finally:
        if held is not None:
            held[0].release()
        connection.close()


@pytest.mark.parametrize("backend", ["memory", "paged"])
def test_the_first_live_reader_after_writes_pays_one_op_per_element(backend):
    """The engine door's pin is ready: the first one after writes builds the
    view from its pinned elements untracked — no scan, no element read and no
    maintenance charged — and publishes it, so the next pays nothing at all."""
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    for key in range(6):
        relation.insert({"k": key, "v": key % 3})
    statistics = database.statistics
    statistics.reset()
    with database._door_pin() as door:
        index = door.index_for("r", "v")
        assert door.index_candidate("r", "v") == (index, 0)
        assert (len(index), index.distinct_values()) == (6, 3)
    with database._door_pin() as door:
        assert door.index_for("r", "v")._entries is index._entries  # nothing more to pay
    assert statistics.index_maintenance_ops == 0
    assert statistics.as_dict()["relations"] == {}  # no scan, no element read


def test_a_live_reader_adopts_the_view_a_pin_built_at_its_version():
    database = _make_database()
    relation = database.relation("r")
    for key in range(6):
        relation.insert({"k": key, "v": key % 3})
    with database.pin_snapshot() as pin:
        view = pin.index_for("r", "v")
    before = database.statistics.index_maintenance_ops
    index = database.index_for("r", "v")
    assert index._entries is view._entries and index.tracker is database.statistics
    assert database.statistics.index_maintenance_ops == before


# ------------------------------------------------------- checkpoints and reopen


def test_a_checkpoint_reads_the_catalog_and_derives_no_index():
    with tempfile.TemporaryDirectory() as directory:
        database = _make_database_on_disk(directory)
        relation = database.relation("r")
        connection = connect(database)
        with connection.session():
            for key in range(10):
                relation.insert({"k": key, "v": key % 4})
        with connection.session():
            relation.delete_key(3)
        before = database.statistics.as_dict()
        database.checkpoint()
        after = database.statistics.as_dict()
        assert after["index_maintenance_ops"] == before["index_maintenance_ops"] == 0
        assert after["relations"]["r"] == before["relations"]["r"]  # no scan, no element read
        connection.close()


@pytest.mark.parametrize(
    ("operator", "organisation"),
    (("=", HashIndex), ("<>", HashIndex), ("<=", SortedIndex), (">", SortedIndex)),
)
def test_reopening_restores_each_index_organisation(operator, organisation):
    with tempfile.TemporaryDirectory() as directory:
        database = _make_database_on_disk(directory)
        database.create_index("r", "v", operator)
        relation = database.relation("r")
        with connect(database).session():
            for key in range(5):
                relation.insert({"k": key, "v": key})
        database.close()
        reopened = Database.open(directory)
        index = reopened.index_for("r", "v")
        assert type(index) is organisation
        assert index.probe_operator("=", 2) == [(2,)]
        reopened.close()


def _make_database_on_disk(directory: str) -> Database:
    database = Database.open(directory)
    database.create_relation("r", [("k", INTEGER), ("v", _SMALL)], key=["k"])
    database.create_index("r", "v")
    return database
