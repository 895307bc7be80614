"""Pinned snapshots see permanent indexes: version-keyed views over the pinned dict.

``DatabaseSnapshot.index_for`` answers with an ordinary ``HashIndex`` /
``SortedIndex`` built over the pin's own element dict and shared, per
contents version, through one slot on the catalog entry.  The property
test drives random interleavings of mutations, transaction boundaries and
pins and checks, after every step and for every live pin, that every probe of
every view equals a brute-force filter of *that pin's own dict*; the unit
tests pin down who builds, who shares, what the access-path selector is
offered and when, and that index DDL cannot disturb a held pin.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.relational.database import Database
from repro.relational.index import HashIndex, SortedIndex
from repro.types.scalar import INTEGER, CharArray, Enumeration, Subrange, compare_values

_SMALL = Subrange(0, 9, "small")
_LABEL = CharArray(4, "label4")
_STATUS = Enumeration("status3", ("low", "mid", "high"))
_LABELS = ("", "a", "ab", "b")

_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")

#: Probe values per indexed component, as the engine would bind them
#: (coerced through the component's type: strings arrive blank-padded).
_PROBE_VALUES = {
    "k": list(range(-1, 10)),
    "v": list(range(-1, 11)),
    "label": [_LABEL.coerce(text) for text in _LABELS + ("zz",)],
    "tag": [_LABEL.coerce(text) for text in _LABELS + ("zz",)],
    "status": list(_STATUS.values()),
    "grade": list(_STATUS.values()),
}


def _row(key: int, value: int) -> dict:
    """Every component derives from ``value``, so one drawn int moves all six indexes."""
    return {
        "k": key,
        "v": value,
        "label": _LABELS[value % 4],
        "tag": _LABELS[(value + 1) % 4],
        "status": _STATUS.labels[value % 3],
        "grade": _STATUS.labels[(value // 3) % 3],
    }


def _make_database(paged: bool = True) -> Database:
    database = Database("views", paged=paged)
    database.create_relation(
        "r",
        [("k", INTEGER), ("v", _SMALL), ("label", _LABEL), ("tag", _LABEL),
         ("status", _STATUS), ("grade", _STATUS)],
        key=["k"],
    )
    database.create_index("r", "v")                       # hash, subrange
    database.create_index("r", "k", operator="<=")        # sorted, integer key
    database.create_index("r", "label")                   # hash, blank-padded strings
    database.create_index("r", "tag", operator="<")       # sorted, blank-padded strings
    database.create_index("r", "grade")                   # hash, enumeration
    database.create_index("r", "status", operator=">=")   # sorted, enumeration
    return database


def _assert_views_exact(snapshot) -> None:
    """Every view of ``snapshot`` answers every probe like a filter of its own dict."""
    indexes = sorted(snapshot.indexes())
    assert len(indexes) == 6
    for relation_name, field_name in indexes:
        view = snapshot.index_for(relation_name, field_name)
        records = list(snapshot.relation(relation_name))
        assert len(view) == len(records)
        for op in _OPERATORS:
            for value in _PROBE_VALUES[field_name]:
                got = sorted(view.probe_operator(op, value))
                want = sorted(
                    (record["k"],)
                    for record in records
                    if compare_values(op, record[field_name], value)
                )
                assert got == want, (field_name, op, value)


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "delete", "assign", "clear", "begin", "commit", "rollback",
             "pin", "pin", "release")
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=8,
    max_size=30,
)


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_views_equal_a_filter_of_the_pins_own_dict(backend: str, steps) -> None:
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    connection = connect(database)
    session = connection.session()
    live: dict[int, int] = {}
    committed: dict[int, int] | None = None  # the pre-transaction image, in a transaction
    pins: list[tuple] = []  # (snapshot, the contents it must hold)
    try:
        for op, key, value in steps:
            if op == "insert":
                if live.get(key, value) == value:
                    relation.insert(_row(key, value))
                    live[key] = value
            elif op == "delete":
                relation.delete_key(key)
                live.pop(key, None)
            elif op == "assign":
                live[key] = value
                relation.assign([_row(k, v) for k, v in sorted(live.items())])
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
            elif op == "pin":
                image = committed if committed is not None else live
                pins.append((database.pin_snapshot(), dict(image)))
                if len(pins) > 3:
                    pins.pop(0)[0].release()
            elif pins:  # release
                pins.pop(key % len(pins))[0].release()
            for snapshot, image in pins:
                held = {record["k"]: record["v"] for record in snapshot.relation("r")}
                assert held == image
                _assert_views_exact(snapshot)
    finally:
        for snapshot, _ in pins:
            snapshot.release()
        connection.close()


def _rows(snapshot, op: str, value: int) -> list[tuple]:
    return sorted(snapshot.index_for("r", "v").probe_operator(op, value))


def test_a_pin_taken_mid_transaction_probes_the_committed_image() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(1, 5))
    connection = connect(database)
    session = connection.session()
    session.begin()
    relation.insert(_row(2, 5))
    relation.delete_key(1)
    with database.pin_snapshot() as inside:
        assert _rows(inside, "=", 5) == [(1,)]
        _assert_views_exact(inside)
    session.commit()
    with database.pin_snapshot() as after:
        assert _rows(after, "=", 5) == [(2,)]
    connection.close()


def test_a_pin_held_across_commits_answers_from_its_own_version() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(0, 1))
    connection = connect(database)
    session = connection.session()
    old = database.pin_snapshot()
    assert _rows(old, "=", 1) == [(0,)]
    for key in (1, 2, 3):
        session.begin()
        relation.insert(_row(key, 1))
        session.commit()
    new = database.pin_snapshot()
    assert _rows(new, "=", 1) == [(0,), (1,), (2,), (3,)]
    assert _rows(old, "=", 1) == [(0,)]
    _assert_views_exact(old)
    _assert_views_exact(new)
    old.release()
    new.release()
    connection.close()


def test_pins_at_one_version_share_one_build_and_only_the_builder_scans() -> None:
    database = _make_database()
    relation = database.relation("r")
    for key in range(6):
        relation.insert(_row(key, key))
    first = database.pin_snapshot()
    second = database.pin_snapshot()
    assert first.relation_versions["r"] == second.relation_versions["r"]

    built = first.index_for("r", "v")
    assert isinstance(built, HashIndex)
    built.probe_operator("=", 3)
    counters = first.statistics.as_dict()["relations"]["r"]
    assert (counters["scans"], counters["elements_read"], counters["index_probes"]) == (1, 6, 1)

    shared = second.index_for("r", "v")
    assert shared is not built and shared._entries is built._entries
    assert shared.tracker is second.statistics
    assert shared.probe_operator("=", 3) == [(3,)]
    counters = second.statistics.as_dict()["relations"]["r"]
    assert (counters["scans"], counters["elements_read"], counters["index_probes"]) == (0, 0, 1)
    # ... and the reuse charged nothing more to the builder.
    assert first.statistics.as_dict()["relations"]["r"]["index_probes"] == 1

    ordered = first.index_for("r", "k")
    again = second.index_for("r", "k")
    assert isinstance(ordered, SortedIndex)
    assert again._filed is ordered._filed and again._keys is ordered._keys
    first.release()
    second.release()


def test_an_older_pin_builds_privately_and_leaves_the_slot_alone() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(0, 4))
    older = database.pin_snapshot()
    relation.insert(_row(1, 4))
    newer = database.pin_snapshot()
    assert _rows(newer, "=", 4) == [(0,), (1,)]
    catalogued = database._indexes["r", "v"]
    slot = catalogued.snapshot_view
    assert slot[0] == newer.relation_versions["r"] > older.relation_versions["r"]

    assert _rows(older, "=", 4) == [(0,)]
    assert catalogued.snapshot_view is slot
    assert older.index_for("r", "v")._entries is not slot[1]._entries
    # A still newer pin replaces the slot.
    relation.insert(_row(2, 4))
    with database.pin_snapshot() as newest:
        assert _rows(newest, "=", 4) == [(0,), (1,), (2,)]
        assert catalogued.snapshot_view[0] == newest.relation_versions["r"]
    older.release()
    newer.release()


def test_a_pin_resolves_each_view_once_however_old_it_is() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(0, 4))
    older = database.pin_snapshot()
    relation.insert(_row(1, 4))
    with database.pin_snapshot() as newer:
        assert _rows(newer, "=", 4) == [(0,), (1,)]
    view = older.index_for("r", "v")  # older than the slot: a private build
    assert older.index_for("r", "v") is view
    counters = older.statistics.as_dict()["relations"]["r"]
    assert (counters["scans"], counters["elements_read"]) == (1, 1)
    older.release()


def test_the_selector_is_offered_a_view_only_once_its_version_outlived_a_read() -> None:
    database = _make_database()
    relation = database.relation("r")
    for key in range(5):
        relation.insert(_row(key, key))
    catalogued = database._indexes["r", "v"]

    first = database.pin_snapshot()
    assert first.index_candidate("r", "nope") == (None, 0)
    assert first.index_candidate("r", "v") == (None, 0)  # first sight: a note, no build
    assert catalogued.snapshot_view == (first.relation_versions["r"], None)
    assert first.statistics.as_dict()["relations"] == {}
    # Second sight, by the same pin or by another at that version: on offer,
    # unbuilt, priced with the catalogued counts plus one read per element.
    second = database.pin_snapshot()
    assert first.index_candidate("r", "v") == (catalogued, 5)
    assert second.index_candidate("r", "v") == (catalogued, 5)
    assert catalogued.snapshot_view[1] is None  # asking never builds
    built = second.index_for("r", "v")
    assert second.index_candidate("r", "v") == (built, 0)
    shared, reads = first.index_candidate("r", "v")
    assert reads == 0 and shared._entries is built._entries
    first.release()
    second.release()

    relation.insert(_row(7, 7))  # a new version starts over
    with database.pin_snapshot() as later:
        assert later.index_candidate("r", "v") == (None, 0)
        assert later.index_candidate("r", "v") == (catalogued, 6)  # its own note
    # A pin older than the slot leaves it alone and still gets its second sight.
    older = database.pin_snapshot()
    relation.insert(_row(8, 8))
    with database.pin_snapshot() as newest:
        newest.index_for("r", "v")
    slot = catalogued.snapshot_view
    assert older.index_candidate("r", "v") == (None, 0)
    assert older.index_candidate("r", "v") == (catalogued, 6)
    assert catalogued.snapshot_view is slot
    older.release()
    # The engine door's pin is ready: on offer at first sight, at zero reads,
    # built from its pinned elements untracked.
    relation.insert(_row(9, 9))
    with database._door_pin() as door:
        view, reads = door.index_candidate("r", "v")
        assert reads == 0 and view.probe_operator("=", 9) == [(9,)]
        assert door.index_candidate("r", "nope") == (None, 0)
        assert door.statistics.as_dict()["relations"]["r"]["scans"] == 0


def test_release_drops_a_published_view_the_committed_contents_moved_past() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(0, 1))
    catalogued = database._indexes["r", "v"]
    connection = connect(database)
    session = connection.session()
    with database.pin_snapshot() as pin:
        pin.index_for("r", "v")
    assert catalogued.snapshot_view[1] is not None  # current: kept for the next pin
    session.begin()
    relation.insert(_row(1, 1))
    with database.pin_snapshot() as inside:  # the committed image has not moved
        assert _rows(inside, "=", 1) == [(0,)]
    assert catalogued.snapshot_view[1] is not None
    session.commit()
    database.pin_snapshot().release()  # any release after the commit, probing or not
    assert catalogued.snapshot_view is None
    connection.close()


def test_a_pin_keeps_the_index_catalog_it_found() -> None:
    database = _make_database()
    relation = database.relation("r")
    relation.insert(_row(0, 2))
    held = database.pin_snapshot()
    database.drop_index("r", "v")
    assert database.index_for("r", "v") is None
    assert ("r", "v") in set(held.indexes())
    assert _rows(held, "=", 2) == [(0,)]
    with database.pin_snapshot() as later:
        assert later.index_for("r", "v") is None
        assert ("r", "v") not in set(later.indexes())
    database.drop_relation("r")
    assert _rows(held, "=", 2) == [(0,)]
    with database.pin_snapshot() as gone:
        assert list(gone.indexes()) == []
    held.release()


def test_index_ddl_racing_a_held_pin_never_raises_and_never_changes_its_rows() -> None:
    database = _make_database()
    relation = database.relation("r")
    for key in range(8):
        relation.insert(_row(key, key % 5))
    connection = connect(database)
    held = database.pin_snapshot()
    expected = {value: _rows(held, "=", value) for value in range(5)}
    query = "[<x.k> OF EACH x IN r: (x.v = $v)]"
    stop = threading.Event()
    errors: list[BaseException] = []

    def ddl() -> None:
        try:
            for round_number in range(150):
                database.drop_index("r", "v")
                database.create_index("r", "v", operator="<=" if round_number % 2 else "=")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            stop.set()

    def reader() -> None:
        try:
            cursor = connection.cursor()
            while not stop.is_set():
                for value in range(5):
                    assert _rows(held, "=", value) == expected[value]
                    cursor.execute(query, {"v": value})
                    got = sorted(record.values for record in cursor.fetchall())
                    assert got == expected[value]
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ddl)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    _assert_views_exact(held)
    held.release()
    connection.close()
