"""The engine door reads a pin.

``QueryEngine.run`` / ``execute_plan`` / ``explain`` on a ``Database`` pin
first — the statement pin of the open transaction on the thread that opened
it, the committed state anywhere else — compile against the pin, run on it
and release it when the rows end.  The pin keeps one difference from a
cursor's: its index candidates are ready.  What is checked here:

* however an execution ends, its pin goes (``_snapshots.active`` back to 0)
  and its counters reach the database's tracker once;
* inside an open transaction the door sees the transaction's writes and
  publishes nothing — no index view, no value list, no kept selection plan;
* the catalog keeps no index entries: ``create_index`` publishes its build,
  and pins at the creation version share it;
* a door on a second thread beside a committing session reads one
  committed state.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import QueryEngine, connect, execute_naive
from repro.errors import PascalRError
from repro.relational.database import Database
from repro.types.scalar import INTEGER, Subrange
from repro.workloads.queries import EXAMPLE_21_TEXT

_SMALL = Subrange(0, 9, "small")
_POINT = "[<x.k, x.v> OF EACH x IN r: (x.v = 3)]"
_JOIN = "[<x.k, y.k> OF EACH x IN r, EACH y IN s: (x.v = y.v)]"
#: Strategy 4: the quantifier over ``s`` becomes a value list.
_DERIVED = "[<x.k> OF EACH x IN r: SOME y IN s ((x.v < y.v))]"


def _make_database(rows: int = 12) -> Database:
    database = Database("door")
    database.create_relation(
        "r", [("k", INTEGER), ("v", _SMALL)], key=["k"],
        elements=[{"k": k, "v": k % 7} for k in range(rows)],
    )
    database.create_relation(
        "s", [("k", INTEGER), ("v", _SMALL)], key=["k"],
        elements=[{"k": k, "v": (k * 3) % 10} for k in range(5)],
    )
    database.create_index("r", "v")
    return database


def _values(rows) -> list[tuple]:
    return sorted(tuple(row.values) for row in rows)


# ------------------------------------------------------------ the pin always goes


def test_a_drained_run_releases_its_pin_and_merges_its_counters_once():
    database = _make_database()
    engine = QueryEngine(database)
    result = engine.run(_POINT)
    assert database._snapshots.active == 0
    assert _values(result.rows) == _values(execute_naive(database, _POINT))
    assert "probe ind_r_v" in result.access_paths["x"]
    database.reset_statistics()
    result = engine.run(_JOIN)
    assert database.statistics.as_dict() == result.statistics
    assert result.statistics["relations"]["r"]["scans"] == 1


def test_an_undrained_execution_releases_its_pin_when_closed():
    database = _make_database(rows=400)
    engine = QueryEngine(database)
    for text in (_POINT, _JOIN, "[<x.k> OF EACH x IN r: (x.k >= 0)]"):
        result = engine.execute_plan(engine.prepare(text))
        next(result.row_iterator)
        assert database._snapshots.active == 1
        result.close()
        assert database._snapshots.active == 0
    # A result that could not stream hands out its finished rows as one
    # chunk; its pin, too, goes when they end.
    result = engine.execute_plan(engine.prepare("[<x.k> OF EACH x IN r: FALSE]"))
    assert list(result.row_iterator) == [] and database._snapshots.active == 0


def test_an_execution_that_raises_releases_its_pin(monkeypatch):
    database = _make_database(rows=400)
    engine = QueryEngine(database)
    # Mid-stream: whatever unwinds the rows ends the execution.
    result = engine.execute_plan(engine.prepare("[<x.k> OF EACH x IN r: (x.k >= 0)]"))
    next(result.row_iterator)
    with pytest.raises(RuntimeError, match="mid-stream"):
        result.row_iterator.throw(RuntimeError("mid-stream"))
    assert database._snapshots.active == 0
    # Before the first row: the pin goes with the error.
    from repro.engine import evaluator

    def failing(*_arguments, **_keywords):
        raise PascalRError("the collection phase failed")

    monkeypatch.setattr(evaluator.CollectionPhase, "run", failing)
    with pytest.raises(PascalRError, match="collection phase failed"):
        engine.run(_JOIN)
    assert database._snapshots.active == 0


def test_the_strategy3_fallback_and_explain_analyze_release_their_pins(figure1):
    employees = figure1.relation("employees")
    employees.assign(
        record.replace(estatus="assistant") if record.estatus.label == "professor" else record
        for record in employees.elements()
    )
    engine = QueryEngine(figure1)
    result = engine.run(EXAMPLE_21_TEXT)
    assert result.used_strategy3_fallback and len(result.relation) == 0
    assert figure1._snapshots.active == 0
    report = engine.explain(EXAMPLE_21_TEXT, analyze=True)
    assert "runtime adaptation" in report
    assert figure1._snapshots.active == 0
    assert "scan employees" in engine.explain(EXAMPLE_21_TEXT)
    assert figure1._snapshots.active == 0


# ------------------------------------------------------- inside a transaction


def test_inside_a_transaction_the_door_reads_its_writes_and_publishes_nothing():
    database = _make_database()
    catalogued = database._indexes["r", "v"]
    slot = catalogued.snapshot_view  # create_index's build
    engine = QueryEngine(database)
    connection = connect(database)
    with connection.session() as session:
        database.relation("r").insert({"k": 50, "v": 3})
        database.relation("s").insert({"k": 50, "v": 9})
        plan = engine.prepare(_POINT)
        rows = engine.execute_plan(plan).drain().rows
        assert (50, 3) in _values(rows)
        assert "probe ind_r_v" in engine.run(_POINT).access_paths["x"]
        derived = engine.run(_DERIVED)
        assert _values(derived.rows) == _values(execute_naive(database, _DERIVED))
        assert derived.statistics["value_lists_built"] == 1
        assert catalogued.snapshot_view is slot
        assert len(database.value_lists) == 0
        assert plan.selection_plan == [None]
        assert database._snapshots.active == 0 and database._snapshots.own_pins == 0
        session.rollback()
    # Committed state: the same reads publish all three.
    plan = engine.prepare(_POINT)
    assert (50, 3) not in _values(engine.execute_plan(plan).drain().rows)
    engine.run(_DERIVED)
    assert catalogued.snapshot_view[0] == database.relation("r")._version
    assert len(database.value_lists) == 1
    assert plan.selection_plan[0] is not None
    connection.close()


def test_a_transaction_on_another_thread_is_not_read():
    database = _make_database()
    engine = QueryEngine(database)
    before = _values(engine.run(_POINT).rows)
    opened, done = threading.Event(), threading.Event()

    def writer() -> None:
        journal = database.begin_transaction()
        database.relation("r").insert({"k": 60, "v": 3})
        opened.set()
        done.wait(10.0)
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        assert opened.wait(10.0)
        assert _values(engine.run(_POINT).rows) == before
    finally:
        done.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert database._snapshots.active == 0


# ------------------------------------------------------ one copy of every index


def test_the_catalog_keeps_no_entries_and_creation_pins_share_its_build():
    database = _make_database()
    relation = database.relation("r")
    built = database.create_index("r", "k", operator="<=")
    with database.pin_snapshot() as creation:
        view = creation.index_for("r", "k")
        assert view._pairs is built._pairs and view.tracker is creation.statistics
        assert creation.statistics.as_dict()["relations"] == {}  # shared, not built
        engine = QueryEngine(database)
        with connect(database).session():
            relation.insert({"k": 70, "v": 1})
        assert [row.k for row in engine.run("[<x.k> OF EACH x IN r: (x.k >= 11)]").rows] == [11, 70]
        engine.run(_POINT)
        for entry in database._indexes.values():
            assert set(vars(entry)) == {
                "organisation", "relation", "field_name", "name", "counts", "snapshot_view",
            }
        assert [ref.key for ref in view.probe_operator(">=", 11)] == [(11,)]  # its own version


# ------------------------------------------------------------- beside a writer


def test_a_door_beside_a_committing_session_reads_one_committed_state():
    """Each transaction inserts a pair of rows: a read of any state inside a
    transaction would hold half a pair, which no committed state does.
    Three door threads beside the writer, more than the cores a CI host
    has, with a short switch interval so the threads interleave inside a
    transaction."""
    database = _make_database()
    texts = (_POINT, _JOIN)
    committed = {text: [_values(execute_naive(database, text))] for text in texts}
    connection = connect(database)
    read: list[tuple[str, list]] = []
    failures: list[BaseException] = []
    stop = threading.Event()

    def door() -> None:
        engine = QueryEngine(database)
        try:
            while not stop.is_set():
                for text in texts:
                    read.append((text, _values(engine.run(text).rows)))
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)

    readers = [threading.Thread(target=door) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        relation = database.relation("r")
        for key in range(100, 140, 2):
            with connection.session():
                relation.insert({"k": key, "v": 3})
                time.sleep(0.001)  # the doors run while half a pair is written
                relation.insert({"k": key + 1, "v": key % 10})
            for text in texts:
                committed[text].append(_values(execute_naive(database, text)))
    finally:
        stop.set()
        for reader in readers:
            reader.join(30.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures
    assert read, "the door never ran"
    for text, rows in read:
        assert rows in committed[text], text
    assert database._snapshots.active == 0
    connection.close()
