"""Sessions and the undo journal: begin/commit/rollback semantics and exactness.

The headline invariant: after *any* journaled mutation sequence,
``rollback()`` restores every relation's **value** and leaves the database
in exactly the state that committing the transaction and then applying its
inverse key by key would have.  The hypothesis
property drives random insert/delete/raw-overwrite/assign/clear
interleavings over several relations (one of them created, one dropped
mid-transaction) and checks, after the rollback:

(a) every relation's ``to_set()`` and cardinality equal pre-``begin``, and
    the elements the transaction never touched keep their relative order;
(b) every permanent index's probe answers equal a rebuild from the
    relation as it stands;
(c) the whole database — element order included — equals a twin that
    *committed* the same operations and then set each touched key back
    through ``delete_key``/``insert`` (``assign`` for a relation the
    transaction assigned or cleared): the model the contract names.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import StrategyOptions, TransactionError, connect, execute_naive
from repro.relational.database import Database
from repro.relational.index import HashIndex, build_index
from repro.relational.record import Record
from repro.types.scalar import INTEGER, Subrange
from repro.workloads.queries import EXAMPLE_21_TEXT, PROFESSORS_TEXT

_SMALL = Subrange(0, 9, "small")
_FIELDS = [("k", INTEGER), ("v", _SMALL)]

#: One random mutation: (op, relation, key, value) — keys collide often so
#: deletes hit, inserts no-op on duplicates and raw inserts overwrite.  ``r``
#: and ``s`` exist at ``begin``; ``create`` declares ``t`` and ``drop`` drops
#: ``s`` mid-transaction (DDL is not transactional; their *data* is).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert", "delete", "delete", "raw", "assign", "clear",
             "create", "drop")
        ),
        st.sampled_from(("r", "r", "s", "t")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=25,
)


def _make_database(paged: bool = True) -> Database:
    database = Database("transactional", paged=paged)
    database.create_relation(
        "r",
        _FIELDS,
        key=["k"],
        elements=[{"k": k, "v": (k * 3) % 10} for k in range(6)],
    )
    database.create_index("r", "v")                 # HashIndex
    database.create_index("r", "k", operator="<=")  # SortedIndex
    return database


def _make_databases(paged: bool = True) -> tuple[Database, dict]:
    """``r`` (indexed) and ``s``; ``relations`` keeps every relation object
    the run meets, dropped ones included."""
    database = _make_database(paged)
    database.create_relation(
        "s", _FIELDS, key=["k"],
        elements=[{"k": k, "v": k} for k in (1, 3, 5)],
    )
    database.create_index("s", "v")
    return database, {name: database.relation(name) for name in ("r", "s")}


def _contents(relation) -> dict[int, int]:
    """Key -> value of ``relation``, in iteration order."""
    return {record["k"]: record["v"] for record in relation.elements()}


def _set_back(elements: dict, before: dict) -> None:
    """The inverse per key, on a plain dict: what the contract says happens.

    A key that holds its before-value is left where it is; any other is
    removed and, if it held something, re-inserted (at the end).
    """
    for key, held in before.items():
        if elements.get(key) != held:
            elements.pop(key, None)
            if held is not None:
                elements[key] = held


class _Run:
    """Applies one operation list to a database, and models what the
    transaction has touched the way the contract describes it."""

    def __init__(self, database: Database, relations: dict) -> None:
        self.database = database
        self.relations = relations
        #: relation -> key -> value held at first touch (``None``: absent).
        self.before: dict[str, dict[int, int | None]] = {}
        #: relation -> its contents with every touched key set back, taken
        #: when the first assign/clear arrived.
        self.image: dict[str, dict[int, int]] = {}

    def _touch(self, name: str, key: int) -> None:
        before = self.before.setdefault(name, {})
        if name not in self.image and key not in before:
            before[key] = _contents(self.relations[name]).get(key)

    def _touch_all(self, name: str) -> None:
        before = self.before.setdefault(name, {})
        if name not in self.image:
            image = _contents(self.relations[name])
            _set_back(image, before)
            self.image[name] = image

    def apply(self, op: str, name: str, key: int, value: int) -> None:
        database = self.database
        if op == "create":
            if "t" not in self.relations:
                self.relations["t"] = database.create_relation(
                    "t", _FIELDS, key=["k"],
                    elements=[{"k": 0, "v": 0}, {"k": 1, "v": 1}],
                )
                database.create_index("t", "v")
            return
        if op == "drop":
            if database.has_relation("s"):
                database.drop_relation("s")
            return
        relation = self.relations.get(name)
        if relation is None or not database.has_relation(name):
            return  # ``t`` before its creation, ``s`` once it is an orphan
        held = _contents(relation).get(key)
        if op == "insert":
            if held is None:
                self._touch(name, key)
                relation.insert({"k": key, "v": value})
            # else: a no-op (same value) or a key violation; neither is
            # what this suite is about.
        elif op == "delete":
            if held is not None:
                self._touch(name, key)
            relation.delete_key(key)
        elif op == "raw":
            self._touch(name, key)
            relation.insert_raw(Record(relation.schema, {"k": key, "v": value}))
        elif op == "assign":
            self._touch_all(name)
            state = _contents(relation)
            state.pop(key, None)
            state[key] = value
            relation.assign([{"k": k, "v": v} for k, v in sorted(state.items())])
        else:  # clear
            self._touch_all(name)
            relation.clear()

    def apply_inverse(self) -> None:
        """Set every touched key back through the ordinary operators."""
        for name in reversed(list(self.before)):
            relation = self.relations[name]
            if name in self.image:
                relation.assign(
                    [{"k": k, "v": v} for k, v in self.image[name].items()]
                )
                continue
            for key, held in self.before[name].items():
                if _contents(relation).get(key) != held:
                    relation.delete_key(key)
                    if held is not None:
                        relation.insert({"k": key, "v": held})


def _assert_coherent(relation, indexes) -> None:
    """(b): everything derived from ``relation`` matches a rebuild."""
    for maintained in indexes:
        operator = "=" if isinstance(maintained, HashIndex) else "<="
        rebuilt = build_index(relation, maintained.field_name, operator)
        assert len(maintained) == len(rebuilt), maintained.name
        for probe_value in range(-1, 11):
            for probe_operator in ("=",) if operator == "=" else ("=", "<=", ">"):
                got = sorted(
                    ref.key for ref in maintained.probe_operator(probe_operator, probe_value)
                )
                want = sorted(
                    ref.key for ref in rebuilt.probe_operator(probe_operator, probe_value)
                )
                assert got == want, (maintained.name, probe_operator, probe_value)


def _indexes_of(database: Database, name: str) -> list:
    """The permanent indexes the catalog holds over relation ``name``."""
    return [
        database.index_for(name, field_name)
        for relation_name, field_name in database.indexes()
        if relation_name == name
    ]


def _assert_identical_to_fresh_rebuild(database: Database) -> None:
    """Relation contents and index answers match a fresh build."""
    relation = database.relation("r")
    fresh_relation = Database("fresh").create_relation(
        "r", _FIELDS, key=["k"], elements=relation.elements(),
    )
    assert [record.values for record in fresh_relation.elements()] == [
        record.values for record in relation.elements()
    ]
    _assert_coherent(relation, _indexes_of(database, "r"))


@pytest.mark.parametrize("backend", ["memory", "paged"])
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
# One key inserted, deleted and re-inserted with another value.
@example(ops=[("insert", "r", 7, 1), ("delete", "r", 7, 0), ("insert", "r", 7, 2)])
# A stored element deleted and re-inserted with its old value / another one.
@example(ops=[("delete", "r", 2, 0), ("insert", "r", 2, 6), ("delete", "r", 3, 0),
              ("insert", "r", 3, 1)])
# insert_raw overwriting a stored element, then the same key again.
@example(ops=[("raw", "r", 1, 9), ("raw", "r", 1, 4), ("raw", "s", 3, 3)])
# assign / clear before and after row-level writes.
@example(ops=[("assign", "r", 6, 1), ("insert", "r", 7, 2), ("delete", "r", 0, 0)])
@example(ops=[("insert", "r", 7, 2), ("delete", "r", 0, 0), ("raw", "r", 1, 9),
              ("clear", "r", 0, 0), ("insert", "r", 3, 3)])
@example(ops=[("delete", "s", 1, 0), ("assign", "s", 1, 5), ("clear", "s", 0, 0),
              ("assign", "s", 2, 2)])
# A relation created, and one dropped, mid-transaction.
@example(ops=[("create", "t", 0, 0), ("insert", "t", 5, 5), ("delete", "t", 0, 0),
              ("delete", "s", 3, 0), ("drop", "s", 0, 0)])
def test_rollback_restores_every_value_and_equals_commit_then_inverse(backend: str, ops) -> None:
    """Random journaled interleavings, then rollback: (a)-(c) of the module docstring."""
    database, relations = _make_databases(paged=(backend == "paged"))
    twin_database, twin_relations = _make_databases(paged=(backend == "paged"))
    before = {name: _contents(relation) for name, relation in relations.items()}
    before_data_version = database.data_version

    connection = connect(database)
    session = connection.session()
    run = _Run(database, relations)
    twin = _Run(twin_database, twin_relations)
    with session, connect(twin_database).session():
        for op in ops:
            run.apply(*op)
            twin.apply(*op)
        ddl_version = database.schema_version
        session.rollback()
        # ... while the twin commits (leaving its ``with`` block) ...
    twin.apply_inverse()  # ... and then undoes itself key by key.

    assert database.schema_version == ddl_version  # rollback is no catalog change
    assert database.data_version >= before_data_version
    assert not database.in_transaction
    assert run.before == twin.before and run.image == twin.image
    before.setdefault("t", {0: 0, 1: 1})
    for name, relation in relations.items():
        # (a) the value, and the order of what the transaction left alone.
        assert _contents(relation) == before[name], name
        assert len(relation) == len(before[name])
        assert relation.to_set() == frozenset(
            Record(relation.schema, {"k": k, "v": v}) for k, v in before[name].items()
        )
        if name not in run.image:
            touched = run.before.get(name, {})
            assert [k for k in _contents(relation) if k not in touched] == [
                k for k in before[name] if k not in touched
            ], name
        # (b): indexes follow.
        catalogued = database.has_relation(name)  # ``s`` may be an orphan now
        indexes = _indexes_of(database, name)
        assert len(indexes) == ((2 if name == "r" else 1) if catalogued else 0)
        _assert_coherent(relation, indexes)
        # (c) element for element the twin that committed and undid itself.
        assert list(_contents(relation).items()) == list(
            _contents(twin_relations[name]).items()
        ), name
        assert relation._journal is None
    connection.close()


@pytest.mark.parametrize("backend", ["memory", "paged"])
def test_commit_keeps_mutations(backend: str) -> None:
    database = _make_database(paged=(backend == "paged"))
    relation = database.relation("r")
    connection = connect(database)
    with connection.session() as session:
        relation.insert({"k": 100, "v": 1})
        assert len(session.journal) == 1
    assert relation.find((100,)) is not None
    _assert_identical_to_fresh_rebuild(database)


class TestSessionProtocol:
    def test_begin_twice_raises(self, figure1):
        session = connect(figure1).session()
        session.begin()
        with pytest.raises(TransactionError):
            session.begin()
        session.rollback()

    def test_concurrent_transactions_are_rejected(self, figure1):
        connection = connect(figure1)
        first = connection.session()
        first.begin()
        second = connection.session()
        with pytest.raises(TransactionError):
            second.begin()
        first.commit()
        second.begin()  # the slot freed up
        second.rollback()

    def test_commit_without_begin_raises(self, figure1):
        session = connect(figure1).session()
        with pytest.raises(TransactionError):
            session.commit()
        with pytest.raises(TransactionError):
            session.rollback()

    def test_context_manager_commits_on_clean_exit(self, figure1):
        employees = figure1.relation("employees")
        before = len(employees)
        with connect(figure1).session() as session:
            employees.delete_key(employees.keys()[0])
            assert session.in_transaction
        assert len(employees) == before - 1

    def test_context_manager_rolls_back_on_exception(self, figure1):
        employees = figure1.relation("employees")
        before = [record.values for record in employees.elements()]
        with pytest.raises(RuntimeError):
            with connect(figure1).session():
                employees.clear()
                raise RuntimeError("abort")
        assert [record.values for record in employees.elements()] == before

    def test_session_close_rolls_back(self, figure1):
        employees = figure1.relation("employees")
        before = len(employees)
        session = connect(figure1).session()
        session.begin()
        employees.delete_key(employees.keys()[0])
        session.close()
        session.close()  # double close is a no-op
        assert len(employees) == before
        assert session.closed

    def test_session_is_reusable_across_transactions(self, figure1):
        employees = figure1.relation("employees")
        before = len(employees)
        session = connect(figure1).session()
        with session:
            employees.delete_key(employees.keys()[0])
            session.rollback()
        with session:
            pass
        assert len(employees) == before

    def test_journal_logs_operations(self, figure1):
        employees = figure1.relation("employees")
        session = connect(figure1).session()
        with session:
            employees.delete_key(employees.keys()[0])
            journal = session.journal
            assert [op[:2] for op in journal.operations] == [("employees", "delete")]
            assert journal.touched_relations() == ["employees"]
            session.rollback()


class TestTransactionalQueries:
    def test_reads_see_uncommitted_writes_then_rollback(self, figure1):
        connection = connect(figure1)
        employees = figure1.relation("employees")
        baseline = sorted(
            record.values
            for record in connection.execute(PROFESSORS_TEXT).fetchall()
        )
        with connection.session() as session:
            professor_keys = [
                figure1.relation("employees").schema.key_of(record.values)
                for record in employees.elements()
                if record.estatus.label == "professor"
            ]
            employees.delete_key(professor_keys[0])
            inside = sorted(
                record.values
                for record in session.execute(PROFESSORS_TEXT).fetchall()
            )
            assert len(inside) == len(baseline) - 1
            session.rollback()
        after = sorted(
            record.values
            for record in connection.execute(PROFESSORS_TEXT).fetchall()
        )
        assert after == baseline

    def test_rollback_keeps_cached_plans_valid(self, figure1):
        connection = connect(figure1)
        prepared = connection.prepare(EXAMPLE_21_TEXT)
        with connection.session() as session:
            figure1.relation("papers").clear()  # flips the emptiness signature
            assert prepared.is_stale()
            session.rollback()
        assert not prepared.is_stale()
        # The plan cache still serves the pre-transaction compilation.
        assert connection.prepare(EXAMPLE_21_TEXT) is prepared
        result = prepared.execute()
        assert result.relation == execute_naive(figure1, EXAMPLE_21_TEXT)

    def test_per_session_options_and_transaction_compose(self, figure1):
        connection = connect(figure1)
        session = connection.session(options=StrategyOptions.none())
        with session:
            rows = session.execute(EXAMPLE_21_TEXT).fetchall()
            session.rollback()
        expected = execute_naive(figure1, EXAMPLE_21_TEXT)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected)

    def test_ddl_is_not_transactional(self, figure1):
        """The documented carve-out: catalog changes survive a rollback."""
        connection = connect(figure1)
        with connection.session() as session:
            figure1.create_index("papers", "pyear")
            session.rollback()
        assert figure1.index_for("papers", "pyear") is not None

    def test_drop_relation_mid_transaction_does_not_strand_rollback(self, figure1):
        """A relation mutated then dropped inside the transaction must not
        leave its journal attached — rollback still restores the others."""
        connection = connect(figure1)
        papers = figure1.relation("papers")
        employees = figure1.relation("employees")
        papers_before = [record.values for record in papers.elements()]
        with connection.session() as session:
            employees.delete_key(employees.keys()[0])
            papers.clear()
            figure1.drop_relation("papers")
            session.rollback()
        # The drop is DDL and survives; the surviving relation is restored.
        assert not figure1.has_relation("papers")
        assert len(employees) == 8
        assert not figure1.in_transaction
        # The orphaned relation object got its before-image back (harmless
        # but exact), and is no longer journaled.
        assert [record.values for record in papers.elements()] == papers_before
        assert papers._journal is None


class TestBusyTimeout:
    """ISSUE 6 satellite: ``ServiceOptions.busy_timeout`` lets a ``begin``
    wait for the database's one transaction slot instead of failing fast."""

    def test_zero_timeout_fails_immediately(self, figure1):
        connection = connect(figure1)
        holder = connection.session()
        holder.begin()
        try:
            with pytest.raises(TransactionError) as excinfo:
                connection.session().begin()
            assert "waited" not in str(excinfo.value)
        finally:
            holder.rollback()

    def test_expired_timeout_reports_the_wait(self, figure1):
        from repro import ServiceOptions

        connection = connect(figure1)
        holder = connection.session()
        holder.begin()
        try:
            waiter = connection.session(
                service_options=ServiceOptions(busy_timeout=0.05)
            )
            with pytest.raises(TransactionError, match="waited 0.05"):
                waiter.begin()
        finally:
            holder.rollback()

    def test_begin_waits_out_a_concurrent_transaction(self, figure1):
        import threading

        from repro import ServiceOptions

        connection = connect(figure1)
        holder = connection.session()
        holder.begin()
        started = threading.Event()
        outcome: dict = {}

        def contender():
            session = connection.session(
                service_options=ServiceOptions(busy_timeout=5.0)
            )
            started.set()
            try:
                session.begin()
                outcome["acquired"] = True
                session.rollback()
            except TransactionError as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        thread = threading.Thread(target=contender)
        thread.start()
        started.wait()
        # The contender is now (or is about to be) parked on the condition;
        # committing frees the slot and must wake it well before 5 s.
        holder.commit()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome.get("acquired") is True
        assert not figure1.in_transaction


def _after_writes(relation, hook, operators=("insert", "delete_key", "assign")) -> None:
    """Run ``hook`` each time one of ``relation``'s write ``operators`` returns —
    replaced on the instance, so a rollback replay's restores run it too."""
    for name in operators:
        def written(argument, _operator=getattr(relation, name)):
            result = _operator(argument)
            hook()
            return result

        setattr(relation, name, written)


def _explode() -> None:
    raise RuntimeError("write hook exploded")


class TestRollbackRobustness:
    """One failing restore must not turn rollback into wholesale data loss —
    the remaining before-images are still restored."""

    def _database(self):
        database = Database("fragile")
        database.create_relation("a", [("k", INTEGER)], key=["k"])
        database.create_relation("b", [("k", INTEGER)], key=["k"])
        database.relation("a").insert({"k": 1})
        database.relation("b").insert({"k": 1})
        return database

    def test_failing_restore_does_not_stop_the_rollback(self):
        database = self._database()
        a, b = database.relation("a"), database.relation("b")
        connection = connect(database)
        session = connection.session()
        session.begin()
        a.insert({"k": 2})
        b.insert({"k": 2})  # b touched last -> restored first
        _after_writes(b, _explode)
        with pytest.raises(TransactionError) as excinfo:
            session.rollback()
        # The failure on b was collected, a's before-image was still restored,
        # and the original exception rides along as the cause.
        assert "b" in str(excinfo.value)
        assert "remaining before-images were restored" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert sorted(r.k for r in a) == [1]
        assert not database.in_transaction
        assert not session.in_transaction

    def test_a_rolled_back_insert_leaves_no_index_entry(self):
        database = self._database()
        database.create_index("a", "k")
        connection = connect(database)
        session = connection.session()
        session.begin()
        database.relation("a").insert({"k": 5})
        assert len(database.index_for("a", "k").probe(5)) == 1
        session.rollback()
        assert sorted(r.k for r in database.relation("a")) == [1]
        assert len(database.index_for("a", "k").probe(5)) == 0


class TestRollbackInvalidatesNothing:
    """Every open result set holds its own pin, so a rollback — of the
    cursor's own transaction included — leaves it returning exactly the
    state at its ``execute``, and its pin is released when it ends."""

    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_the_sessions_own_open_cursor_drains_the_state_at_its_execute(self, backend):
        from repro import QueryEngine, connect
        from repro.workloads.queries import OTHERS_PUBLISHED_1977_TEXT
        from repro.workloads.university import build_university_database

        database = build_university_database(scale=2, paged=(backend == "paged"))
        employees = database.relation("employees")
        connection = connect(database)
        session = connection.session()
        session.begin()
        employees.delete_key(employees.keys()[0])
        expected = [r.values for r in QueryEngine(database).run(OTHERS_PUBLISHED_1977_TEXT).rows]
        cursor = session.cursor().execute(OTHERS_PUBLISHED_1977_TEXT)
        first = cursor.fetchone()
        assert first is not None
        session.rollback()
        assert [first.values, *[r.values for r in cursor.fetchall()]] == expected
        assert database._snapshots.active == 0
        connection.close()

    def test_rollback_leaves_snapshot_and_finished_cursors_alone(self, figure1):
        from repro import connect
        from repro.workloads.queries import OTHERS_PUBLISHED_1977_TEXT

        figure1.create_relation("scratch", [("k", INTEGER)], key=["k"])
        connection = connect(figure1)  # snapshot reads on
        open_snapshot = connection.cursor().execute(OTHERS_PUBLISHED_1977_TEXT)
        first = open_snapshot.fetchone()
        assert first is not None
        drained = connection.cursor().execute(OTHERS_PUBLISHED_1977_TEXT)
        expected = [first.values] + [
            record.values for record in drained.fetchall()
        ][1:]

        session = connection.session()
        session.begin()
        figure1.relation("scratch").insert({"k": 1})
        session.rollback()

        # The snapshot cursor drains to the exact pre-rollback rows, and the
        # already-exhausted cursor keeps answering rowcount/statistics.
        rest = [record.values for record in open_snapshot.fetchall()]
        assert [first.values, *rest] == expected
        assert drained.rowcount == len(expected)
        connection.close()


class _Stall:
    """Parks the write that reaches it until told to continue."""

    def __init__(self):
        import threading

        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.entered.set()
        assert self.release.wait(timeout=10.0)


class TestRollbackHoldsTheTransactionSlot:
    """Review fix: the transaction slot must stay held until the rollback
    replay completes.  Freeing it at ``end_transaction`` let a second
    session begin mid-replay — its fresh journal made the replay fail on
    the 'still journaled' guard, and the stale completion callback cleared
    the NEW transaction's snapshot-overlay state."""

    def _database(self):
        database = Database("slot")
        database.create_relation("a", [("k", INTEGER)], key=["k"])
        database.relation("a").insert({"k": 1})
        return database

    def test_begin_is_refused_and_waits_while_the_replay_runs(self):
        import threading

        from repro import ServiceOptions

        database = self._database()
        relation = database.relation("a")
        connection = connect(database)
        stall = _Stall()

        session = connection.session()
        session.begin()
        relation.insert({"k": 2})
        _after_writes(relation, stall)  # only the replay's restores stall

        rolled = threading.Event()

        def roll():
            session.rollback()
            rolled.set()

        replayer = threading.Thread(target=roll)
        replayer.start()
        try:
            assert stall.entered.wait(timeout=10.0)
            # Mid-replay: the slot is still held, so an immediate begin is
            # refused and the database still reports an open transaction.
            assert database.in_transaction
            with pytest.raises(TransactionError):
                connection.session().begin()

            # A begin with a busy timeout parks on the condition and must
            # only be admitted once the replay has finished.
            admitted: dict = {}

            def contend():
                waiter = connection.session(
                    service_options=ServiceOptions(busy_timeout=10.0)
                )
                waiter.begin()
                admitted["after_replay"] = rolled.is_set()
                waiter.rollback()

            contender = threading.Thread(target=contend)
            contender.start()
            contender.join(timeout=0.3)
            assert contender.is_alive(), "begin was admitted mid-replay"
        finally:
            stall.release.set()
        replayer.join(timeout=10.0)
        contender.join(timeout=10.0)
        assert not replayer.is_alive() and not contender.is_alive()
        assert admitted.get("after_replay") is True
        # The rollback was exact despite the contention.
        assert sorted(record.k for record in relation) == [1]
        assert not database.in_transaction
        connection.close()
