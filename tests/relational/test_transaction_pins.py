"""Pins taken around and inside a transaction read the committed state — and
only the reader that pins mid-transaction pays for its image.

A transaction writes the live dicts in place and its journal keeps, per
touched key, what the key held before; ``SnapshotRegistry.pin`` rebuilds the
committed contents of a touched relation from those before-values the first
time a pin meets it (kept in ``registry.overlay`` for the transaction's later
pins).  The property test drives random interleavings of row-level writes,
raw overwrites, ``assign``/``clear``, transaction boundaries and pins — with
a hook that pins *from inside* every write operator, so
pins also land between the writes of a rollback replay — and checks that
every pin holds exactly the committed contents and contents version of its
moment, for as long as it lives.  A second property lets a writer act
between a pin and its first read of a relation — the pin builds its view of
a relation only then — and checks the pin still reads the state it was taken
at.  The unit tests pin down who pays: nobody, unless a pin arrives
mid-transaction; then once per touched relation.

A session cursor inside a transaction reads a *statement pin* instead: the
transaction's own writes up to its ``execute``.  A third property opens such
statements, half-fetches them across chunk boundaries and lets the
transaction keep writing, commit or roll back beside committed pins and
readers on a second thread: every stream returns the state of its
``execute``, and nothing shared ever holds an uncommitted version.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_university_database, connect, execute_naive
from repro.relational.database import Database
from repro.relational.record import Record
from repro.types.scalar import INTEGER, Subrange

_SMALL = Subrange(0, 9, "small")

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert", "delete", "delete", "raw", "assign", "clear",
             "begin", "commit", "rollback", "pin", "pin", "release")
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=8,
    max_size=35,
)


def _make_database(rows: int = 6, paged: bool = True) -> Database:
    database = Database("pins", paged=paged)
    database.create_relation(
        "r",
        [("k", INTEGER), ("v", _SMALL)],
        key=["k"],
        elements=[{"k": k, "v": (k * 3) % 10} for k in range(rows)],
    )
    database.create_index("r", "v")
    return database


def _contents(relation) -> dict[int, int]:
    return {record["k"]: record["v"] for record in relation}


class _Committed:
    """What a pin taken right now must read: the model of the committed state."""

    def __init__(self, relation) -> None:
        self.relation = relation
        self.contents = _contents(relation)
        self.version = relation._version

    def publish(self) -> None:
        """A commit, a finished rollback, or a write outside any transaction."""
        self.contents = _contents(self.relation)
        self.version = self.relation._version


#: Every write operator of a relation: the write path a test hooks into.
_WRITE_OPERATORS = ("insert", "insert_raw", "delete_key", "assign", "clear")


def _after_writes(relation, hook, operators=_WRITE_OPERATORS) -> None:
    """Run ``hook`` each time one of ``relation``'s ``operators`` returns.

    The operators are replaced on the instance, so the calls the relation
    makes itself (``assign``'s per-element inserts) and the restores of a
    rollback replay run the hook too: it lands between two writes of
    whatever is running, after the dict write and outside the registry lock.
    """
    for name in operators:
        def written(*args, _operator=getattr(relation, name), **kwargs):
            result = _operator(*args, **kwargs)
            hook()
            return result

        setattr(relation, name, written)


class _PinningHook:
    """Pins a snapshot from inside every write (see ``_after_writes``)."""

    def __init__(self, database, committed: _Committed, pins: list) -> None:
        self.database = database
        self.committed = committed
        self.pins = pins
        self.in_transaction = False

    def __call__(self) -> None:
        if not self.in_transaction:
            # A write outside any transaction is committed as it lands (and
            # this hook runs after it landed).
            self.committed.publish()
        _take_pin(self.database, self.committed, self.pins)


def _take_pin(database, committed: _Committed, pins: list) -> None:
    snapshot = database.pin_snapshot()
    assert _contents(snapshot.relation("r")) == committed.contents
    assert snapshot.relation_versions["r"] == committed.version
    pins.append((snapshot, dict(committed.contents), committed.version))


def _assert_pins_hold(pins: list) -> None:
    for snapshot, contents, version in pins:
        assert _contents(snapshot.relation("r")) == contents
        assert snapshot.relation_versions["r"] == version
        # The view offered to the pin is built over the pin's own image.
        view = snapshot.index_for("r", "v")
        for value in range(10):
            assert sorted(ref.key for ref in view.probe(value)) == sorted(
                (k,) for k, v in contents.items() if v == value
            )


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, pin_in_hooks=st.booleans())
def test_every_pin_reads_the_committed_state_of_its_moment(
    backend: str, steps, pin_in_hooks: bool
) -> None:
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    connection = connect(database)
    session = connection.session()
    committed = _Committed(relation)
    pins: list[tuple] = []
    observer = _PinningHook(database, committed, pins)
    if pin_in_hooks:
        _after_writes(relation, observer)
    try:
        for op, key, value in steps:
            live = _contents(relation)
            if op == "insert":
                if live.get(key, value) == value:
                    relation.insert({"k": key, "v": value})
            elif op == "delete":
                relation.delete_key(key)
            elif op == "raw":
                relation.insert_raw(Record(relation.schema, {"k": key, "v": value}))
            elif op == "assign":
                live[key] = value
                relation.assign([{"k": k, "v": v} for k, v in sorted(live.items())])
            elif op == "clear":
                relation.clear()
            elif op == "begin":
                if not session.in_transaction:
                    session.begin()
                    observer.in_transaction = True
            elif op == "commit":
                if session.in_transaction:
                    session.commit()
                    observer.in_transaction = False
            elif op == "rollback":
                if session.in_transaction:
                    expected = dict(committed.contents)
                    session.rollback()  # pins from inside the replay, too
                    observer.in_transaction = False
                    assert _contents(relation) == expected
            elif op == "pin":
                _take_pin(database, committed, pins)
            elif pins:  # release
                pins.pop(key % len(pins))[0].release()
            if not session.in_transaction:
                committed.publish()
                assert not database._snapshots.overlay
            _assert_pins_hold(pins)
        # A pin after everything reads what is there.
        if session.in_transaction:
            session.commit()
            observer.in_transaction = False
        committed.publish()
        _take_pin(database, committed, pins)
        _assert_pins_hold(pins)
    finally:
        for snapshot, _, _ in pins:
            snapshot.release()
        connection.close()
    assert database._snapshots.active == 0


_LAZY_QUERIES = (
    "[<x.k, x.v> OF EACH x IN r: (x.v = 3)]",
    "[<x.k> OF EACH x IN r: (x.v <= 4)]",
    "[<x.k, x.v> OF EACH x IN r: (x.k >= 2) AND (x.v <> 1)]",
    "[<x.k> OF EACH x IN r: SOME y IN r ((x.k = y.v))]",
)

_ROW_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "delete", "clear")),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=8,
)
_WRITER_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "delete", "clear", "create_index", "drop_index")),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=8,
)


def _write(database, op: str, key: int, value: int) -> None:
    relation = database.relation("r")
    if op == "insert":
        relation.delete_key(key)
        relation.insert({"k": key, "v": value})
    elif op == "delete":
        relation.delete_key(key)
    elif op == "clear":
        relation.clear()
    elif op == "create_index":
        if database.index_for("r", "k") is None:
            database.create_index("r", "k", operator="<=")
    elif database.index_for("r", "v") is not None:
        database.drop_index("r", "v")


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(_LAZY_QUERIES),
    before=_ROW_STEPS,
    between=_WRITER_STEPS,
    begin_before_pin=st.booleans(),
    outcome=st.sampled_from(("commit", "rollback", "open")),
)
def test_a_lazy_pin_reads_the_state_it_was_taken_at(
    backend, text, before, between, begin_before_pin, outcome
) -> None:
    """Between a pin and its first read of ``r``, a writer inserts into,
    deletes from or clears ``r`` — inside a transaction begun before the pin
    or after it, committed, rolled back or still open — or runs index DDL.
    The pin reads what was committed when it was taken, at the contents
    versions of that moment, and runs a handle held from before it building
    the view of the one relation it reads and of no other."""
    database = _make_database(paged=(backend == "paged"))
    database.create_relation("s", [("k", INTEGER)], key=["k"], elements=[(1,), (2,)])
    connection = connect(database)
    session = connection.session()
    prepared = connection.service.prepare(text)
    expected = execute_naive(database, text)
    versions = {name: database.relation(name)._version for name in ("r", "s")}
    if begin_before_pin:
        session.begin()
        for step in before:
            _write(database, *step)
    snapshot = database.pin_snapshot()
    try:
        if not begin_before_pin:
            session.begin()
        for step in between:
            _write(database, *step)
        if outcome == "commit":
            session.commit()
        elif outcome == "rollback":
            session.rollback()
        prepared.ensure_fresh(snapshot)
        result = prepared.start(None, snapshot, drain=True)
        assert result.relation == expected
        assert snapshot.relation_versions == versions
        assert list(snapshot._relations) == ["r"]
    finally:
        snapshot.release()
        if session.in_transaction:
            session.rollback()
        connection.close()
    assert database._snapshots.active == 0


class TestWhoPaysForTheCommittedImage:
    def test_a_transaction_no_reader_pins_into_copies_nothing(self):
        database = _make_database(rows=50)
        relation = database.relation("r")
        registry = database._snapshots
        elements = relation._elements
        with connect(database).session():
            relation.insert({"k": 100, "v": 1})
            relation.delete_key(3)
            relation.insert_raw(Record(relation.schema, {"k": 4, "v": 9}))
            assert not registry.overlay
        assert relation._elements is elements  # written in place, never copied
        assert not registry.overlay
        # ... and the same holds for one that rolls back.
        session = connect(database).session()
        session.begin()
        relation.insert({"k": 101, "v": 1})
        relation.delete_key(5)
        session.rollback()
        assert relation._elements is elements
        assert not registry.overlay

    def test_the_first_mid_transaction_pin_builds_the_image_later_pins_share_it(self):
        database = _make_database()
        relation = database.relation("r")
        registry = database._snapshots
        before = _contents(relation)
        version = relation._version
        journal = database.begin_transaction()
        relation.insert({"k": 50, "v": 5})
        relation.delete_key(1)
        live = relation._elements
        first = database.pin_snapshot()
        image = first.relation("r")._elements
        assert image is not live and _contents(first.relation("r")) == before
        assert registry.overlay["r"] == (image, version)
        # The pin holds an image, not the live dict: the next write of the
        # transaction goes in place, and a later pin shares the image even
        # though more has been written since.
        relation.insert({"k": 51, "v": 5})
        assert relation._elements is live
        second = database.pin_snapshot()
        assert second.relation("r")._elements is image
        assert second.relation_versions == first.relation_versions == {"r": version}
        database.commit_transaction(journal)
        database.end_transaction(journal)
        assert not registry.overlay
        assert _contents(first.relation("r")) == _contents(second.relation("r")) == before
        after = database.pin_snapshot()
        assert after.relation("r")._elements is live
        assert after.relation_versions["r"] == relation._version > version
        for snapshot in (first, second, after):
            snapshot.release()

    def test_an_untouched_relation_is_pinned_by_reference_mid_transaction(self):
        database = _make_database()
        database.create_relation("other", [("k", INTEGER)], key=["k"], elements=[(1,)])
        other = database.relation("other")
        journal = database.begin_transaction()
        database.relation("r").insert({"k": 50, "v": 5})
        snapshot = database.pin_snapshot()
        assert snapshot.relation("other")._elements is other._elements
        assert "other" not in database._snapshots.overlay
        # That pin predates the transaction's first write to ``other``: the
        # write must copy, and the pin keeps the committed contents.
        held = other._elements
        other.insert((2,))
        assert other._elements is not held
        assert [record.k for record in snapshot.relation("other")] == [1]
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        assert [record.k for record in snapshot.relation("other")] == [1]
        assert [record.k for record in other] == [1]
        snapshot.release()

    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_a_pin_that_predates_the_write_still_forces_the_copy(self, backend):
        database = _make_database(paged=(backend == "paged"))
        relation = database.relation("r")
        before = _contents(relation)
        snapshot = database.pin_snapshot()
        held = relation._elements
        with connect(database).session():
            relation.insert({"k": 60, "v": 6})
            assert relation._elements is not held  # copy-on-write, once
            copied = relation._elements
            relation.delete_key(0)
            assert relation._elements is copied
            assert not database._snapshots.overlay
        assert snapshot.relation("r")._elements is held
        assert _contents(snapshot.relation("r")) == before
        snapshot.release()

    def test_assign_and_clear_keep_the_committed_dict_by_reference(self):
        database = _make_database()
        relation = database.relation("r")
        committed_dict = relation._elements
        before = _contents(relation)
        journal = database.begin_transaction()
        relation.clear()
        relation.insert({"k": 70, "v": 7})
        snapshot = database.pin_snapshot()
        assert snapshot.relation("r")._elements is committed_dict  # no copy at all
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        assert _contents(relation) == before
        assert list(_contents(relation)) == list(before)  # the image keeps its order
        assert _contents(snapshot.relation("r")) == before
        snapshot.release()

    def test_assign_after_row_writes_restores_the_reconstructed_image(self):
        database = _make_database()
        relation = database.relation("r")
        before = _contents(relation)
        journal = database.begin_transaction()
        relation.delete_key(2)
        relation.insert({"k": 80, "v": 8})
        relation.assign([{"k": 1, "v": 1}])
        relation.insert({"k": 81, "v": 8})  # recorded nowhere: the image covers it
        snapshot = database.pin_snapshot()
        assert _contents(snapshot.relation("r")) == before
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        assert _contents(relation) == before
        # The deleted key was set back at the end of the image.
        assert list(_contents(relation)) == [0, 1, 3, 4, 5, 2]
        snapshot.release()

    def test_release_mid_transaction_judges_views_by_the_committed_version(self):
        database = _make_database()
        relation = database.relation("r")
        catalogued = database._indexes["r", "v"]
        relation.insert({"k": 91, "v": 1})  # past the build create_index published
        journal = database.begin_transaction()
        relation.insert({"k": 90, "v": 9})  # the live version moves on
        first = database.pin_snapshot()
        view = first.index_for("r", "v")
        assert catalogued.snapshot_view == (first.relation_versions["r"], view)
        assert sorted(ref.key for ref in view.probe(9)) == [(3,)]  # not (90,)
        first.release()
        # Still the committed version: the view stays for the next pin.
        assert catalogued.snapshot_view is not None
        second = database.pin_snapshot()
        assert second.index_for("r", "v")._entries is view._entries
        database.commit_transaction(journal)
        database.end_transaction(journal)
        second.release()  # the committed contents moved past it now
        assert catalogued.snapshot_view is None


class _Stall:
    """Parks the first write that reaches it until told to continue."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self) -> None:
        self.entered.set()
        assert self.release.wait(timeout=10.0)


def test_a_pin_from_another_thread_inside_a_stalled_rollback_replay():
    database = _make_database()
    relation = database.relation("r")
    before = _contents(relation)
    version = relation._version
    connection = connect(database)
    session = connection.session()
    session.begin()
    relation.delete_key(0)
    relation.delete_key(1)
    relation.insert({"k": 40, "v": 4})
    stall = _Stall()
    _after_writes(relation, stall, ("insert", "delete_key"))  # only the replay's restores
    replayer = threading.Thread(target=session.rollback)
    replayer.start()
    try:
        assert stall.entered.wait(timeout=10.0)
        # The replay has put key 0 back and is parked before the rest.
        assert 0 in _contents(relation) and 1 not in _contents(relation)
        with database.pin_snapshot() as snapshot:
            assert _contents(snapshot.relation("r")) == before
            assert snapshot.relation_versions["r"] == version
    finally:
        stall.release.set()
    replayer.join(timeout=10.0)
    assert not replayer.is_alive()
    assert _contents(relation) == before
    with database.pin_snapshot() as snapshot:
        assert _contents(snapshot.relation("r")) == before
        assert snapshot.relation_versions["r"] == relation._version > version
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "paged"])
def test_readers_pinning_beside_a_committing_and_aborting_writer(backend):
    """Threaded stress: every pin, whenever it lands, reads a committed state.

    The writer slides a window of *pairs* (2i, 2i + 1) over the relation,
    one transaction per step, and rolls every third transaction back after
    also writing a poison key; a committed state therefore never holds half
    a pair or the poison, and two pins that agree on the contents version
    hold the same contents.  Mid-transaction the writer also opens a
    statement of its own and reads it only after its remaining writes,
    while the readers' pins hold the committed image: it must read the
    transaction's state at its ``execute``.
    """
    database = _make_database(rows=0, paged=(backend == "paged"))
    relation = database.relation("r")
    connection = connect(database)
    failures: list = []
    done = threading.Event()
    by_version: dict[int, frozenset] = {}
    pinned = [0]

    def reader() -> None:
        while not done.is_set():
            with database.pin_snapshot() as snapshot:
                contents = _contents(snapshot.relation("r"))
                version = snapshot.relation_versions["r"]
            pinned[0] += 1
            keys = frozenset(contents)
            try:
                assert all((key ^ 1) in keys for key in keys), sorted(keys)
                assert not keys & {1_000_001, 1_000_000}
                assert by_version.setdefault(version, keys) == keys
            except AssertionError as exc:
                failures.append(exc)
                return

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-write as often as possible
    for thread in readers:
        thread.start()
    try:
        session = connection.session()
        for step in range(400):
            session.begin()
            relation.insert({"k": 2 * step, "v": step % 10})
            relation.insert({"k": 2 * step + 1, "v": step % 10})
            statement = session.cursor().execute("[<x.k> OF EACH x IN r: (x.k >= 0)]")
            at_execute = sorted(_contents(relation))
            if step >= 8:
                relation.delete_key(2 * (step - 8))
                relation.delete_key(2 * (step - 8) + 1)
            assert sorted(record.k for record in statement.fetchall()) == at_execute
            if step % 3 == 2:
                relation.insert({"k": 1_000_000, "v": 0})
                session.rollback()
                # Redo the step for real, so the window keeps sliding.
                session.begin()
                relation.insert({"k": 2 * step, "v": step % 10})
                relation.insert({"k": 2 * step + 1, "v": step % 10})
                if step >= 8:
                    relation.delete_key(2 * (step - 8))
                    relation.delete_key(2 * (step - 8) + 1)
            session.commit()
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures[0]
    assert pinned[0] > 0
    assert sorted(_contents(relation)) == list(range(2 * 392, 2 * 400))
    assert database._snapshots.active == 0 and not database._snapshots.overlay
    connection.close()


# ---------------------------------------------------------------- statement pins

_STATEMENTS = (
    "[<x.k, x.v> OF EACH x IN r: (x.v = 3)]",
    "[<x.k> OF EACH x IN r: (x.k >= 0)]",
    "[<x.k, x.v> OF EACH x IN r: (x.v <= 4)]",
    "[<x.k> OF EACH x IN r: SOME y IN r ((x.k = y.v))]",
    "[<x.k> OF EACH x IN r: SOME y IN [EACH y IN r: (y.v <= 4)] ((x.k = y.v))]",
)

_STATEMENT_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("begin", "begin", "write", "write", "write", "open", "open", "fetch", "fetch",
             "commit", "rollback", "hold", "unhold", "reader")
        ),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=8,
    max_size=40,
)


def _sorted_values(rows) -> list:
    return sorted(tuple(row.values) for row in rows)


def _shared_versions(database, connection) -> list[tuple[str, int]]:
    """``(where, version of r)`` for everything shared that carries a token of ``r``."""
    versions = []
    slot = database._indexes["r", "v"].snapshot_view
    if slot is not None:
        versions.append(("index view slot", slot[0]))
    for token, _ in database.value_lists._entries.values():
        versions.extend(("value list", version) for version in token[1:])
    for prepared in connection.service.cache._entries._entries.values():
        for token, _ in prepared._collections._entries.values():
            versions.append(("collection memo", token[1]))
        for held in filter(None, prepared._plan.selection_plan):
            versions.append(("selection plan", held[0][1]))
    return versions


def _read_on_another_thread(connection, text: str) -> list:
    box: list = []

    def read() -> None:
        try:
            box.append(connection.cursor().execute(text).fetchall())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append(exc)

    thread = threading.Thread(target=read)
    thread.start()
    thread.join(timeout=10.0)
    (rows,) = box
    if isinstance(rows, BaseException):
        raise rows
    return rows


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=40, deadline=None)
@given(steps=_STATEMENT_STEPS)
def test_a_statement_reads_the_state_of_its_execute(backend, steps) -> None:
    """Session cursors opened inside (and outside) a transaction and
    half-fetched across chunk boundaries, while the transaction keeps
    writing, commits or rolls back, committed pins are held across the
    writes (they hold the overlay's image) and committed readers run on a
    second thread: every stream returns what the naive interpreter returned
    at its ``execute``; no index-view slot, value list, collection memo or
    kept selection plan ever holds a version of ``r`` that was never
    committed; and every pin is released in the end."""
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    connection = connect(database)
    session = connection.session()
    committed = {relation._version}
    streams: list[list] = []  # [cursor, the rows at its execute, the rows fetched]
    held: list = []
    try:
        for op, a, b in steps:
            if op == "begin" and not session.in_transaction:
                session.begin()
            elif op == "write":
                _write(database, "delete" if b % 3 == 0 else "insert", a, b)
                if not session.in_transaction:
                    committed.add(relation._version)
            elif op == "open":
                text = _STATEMENTS[a % len(_STATEMENTS)]
                expected = _sorted_values(execute_naive(database, text))
                streams.append([session.cursor().execute(text), expected, []])
            elif op == "fetch" and streams:
                cursor, _, rows = streams[a % len(streams)]
                rows += cursor.fetchmany((1, 2, 3, 5)[b % 4])
            elif op in ("commit", "rollback") and session.in_transaction:
                getattr(session, op)()
                committed.add(relation._version)
            elif op == "hold":
                held.append(database.pin_snapshot())
            elif op == "unhold" and held:
                held.pop(a % len(held)).release()
            elif op == "reader":
                text = _STATEMENTS[a % len(_STATEMENTS)]
                with database.pin_snapshot() as pin:
                    expected = _sorted_values(execute_naive(pin, text))
                assert _sorted_values(_read_on_another_thread(connection, text)) == expected
            for where, version in _shared_versions(database, connection):
                assert version in committed, (where, version, sorted(committed))
        for cursor, expected, rows in streams:
            rows += cursor.fetchall()
            assert _sorted_values(rows) == expected
            cursor.close()
        if session.in_transaction:
            session.rollback()
    finally:
        for pin in held:
            pin.release()
        connection.close()
    assert database._snapshots.active == 0 and database._snapshots.own_pins == 0


def test_a_committed_pin_holding_an_image_leaves_the_statement_its_copy():
    """Rule 2's seam: a statement pin holds the live dict; a committed pin
    taken after it holds the overlay's image and must not waive the copy the
    transaction's next write owes the statement."""
    database = _make_database(rows=8)
    relation = database.relation("r")
    connection = connect(database)
    session = connection.session()
    session.begin()
    relation.delete_key(0)  # the transaction has touched r: committed pins get an image
    statement = session.cursor().execute("[<x.k> OF EACH x IN r: (x.k >= 0)]")  # reads nothing yet
    image = database.pin_snapshot()
    assert image.relation("r")._elements is not relation._elements
    relation.insert({"k": 60, "v": 6})
    relation.delete_key(1)
    assert sorted(record.k for record in statement.fetchall()) == list(range(1, 8))
    assert sorted(record.k for record in image.relation("r")) == list(range(8))
    image.release()
    session.rollback()
    connection.close()
    assert database._snapshots.active == 0 and database._snapshots.own_pins == 0


def test_a_statement_pin_reads_the_shared_memos_and_publishes_nothing():
    """Rule 1: inside a transaction, statements read the value lists, view
    slots and collection memos their exact tokens match, and write none; the
    same statements on committed pins publish all three."""
    database = _make_database()
    relation = database.relation("r")
    connection = connect(database)
    point, strategy_4 = _STATEMENTS[0], _STATEMENTS[4]
    handle = connection.prepare(strategy_4)
    catalogued = database._indexes["r", "v"]
    slot = catalogued.snapshot_view  # create_index's build
    session = connection.session()
    session.begin()
    relation.insert({"k": 50, "v": 3})
    for _ in range(3):  # on a committed pin: scan, build the view, probe
        assert any(row.k == 50 for row in session.cursor().execute(point).fetchall())
        session.cursor().execute(strategy_4).fetchall()
    assert catalogued.snapshot_view is slot
    assert len(database.value_lists) == 0 and len(handle._collections) == 0
    session.rollback()
    for _ in range(3):
        connection.cursor().execute(point).fetchall()
        connection.cursor().execute(strategy_4).fetchall()
    assert catalogued.snapshot_view[1] is not None and catalogued.snapshot_view is not slot
    assert len(database.value_lists) > 0 and len(handle._collections) == 1
    # A statement whose relations the transaction has not written reads them all.
    with connection.session() as session:
        cursor = session.cursor().execute(strategy_4)
        cursor.fetchall()
        assert cursor.result.combination.plan_reused
        probe = session.cursor().execute(point)
        assert probe.fetchall()
        assert probe.result.access_paths["x"].startswith("probe")
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "paged"])
def test_a_session_stream_does_not_see_its_transactions_later_writes(backend):
    """A session cursor half-fetched, then fifty inserts into the relation it
    reads: the rest of its rows are those that existed at its ``execute``."""
    database = build_university_database(scale=1, paged=(backend == "paged"))
    text = "[<e.enr> OF EACH e IN employees: (e.enr >= 1)]"
    expected = _sorted_values(execute_naive(database, text))
    connection = connect(database)
    session = connection.session()
    session.begin()
    cursor = session.cursor().execute(text)
    rows = cursor.fetchmany(3)
    employees = database.relation("employees")
    for enr in range(9000, 9050):
        employees.insert({"enr": enr, "ename": f"n{enr}", "estatus": "student"})
    rows += cursor.fetchall()
    assert _sorted_values(rows) == expected and len(rows) == len(expected)
    session.rollback()
    connection.close()
