"""Tentpole: multi-version snapshot reads — pinned views, COW, cursor routing.

The MVCC contract of ``relational/mvcc.py`` and its connection front door:

* **Pin rule** — a pin captures, per relation, the committed element dict and
  contents version; pinning copies nothing.
* **Copy-on-write rule** — a writer never mutates a dict a live snapshot may
  hold: it copies first, so pinned views are immutable by construction.
* **Committed overlay** — a pin taken while a transaction is journaling sees
  the pre-transaction contents and data version of every relation.
* **Routing** — every front-door read executes on a snapshot: a connection
  cursor on the committed state, a session cursor inside a transaction on
  that transaction's statement snapshot, so the transaction reads its writes.

Equivalence is the acceptance bar: snapshot rows must be byte-identical to
the engine door's (``QueryEngine.run`` on the database) across the
named-query matrix.
"""

from __future__ import annotations

import pytest

from repro import QueryEngine, SnapshotError, connect, execute_naive
from repro.errors import BindingError
from repro.relational.database import Database
from repro.types.scalar import INTEGER
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    EXAMPLE_45_TEXT,
    NO_1977_PAPERS_TEXT,
    OTHERS_PUBLISHED_1977_TEXT,
    PROFESSORS_TEXT,
    PUBLISHING_TEACHERS_TEXT,
    SENIORITY_TEXT,
    STATUS_PARAM_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
)
from repro.workloads.university import build_university_database, figure1_database

_MATRIX = (
    EXAMPLE_21_TEXT,
    EXAMPLE_45_TEXT,
    PROFESSORS_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
    NO_1977_PAPERS_TEXT,
    SENIORITY_TEXT,
    OTHERS_PUBLISHED_1977_TEXT,
    PUBLISHING_TEACHERS_TEXT,
)
_PROFESSOR = {"status": "professor"}


def _scratch_database(paged: bool = True) -> Database:
    database = Database("mvcc", paged=paged)
    database.create_relation(
        "r",
        [("k", INTEGER), ("v", INTEGER)],
        key=["k"],
        elements=[{"k": k, "v": k * 10} for k in range(4)],
    )
    return database


def _rows(relation) -> set[tuple]:
    return {tuple(record.values) for record in relation.scan()}


class TestPinSemantics:
    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_pin_is_isolated_from_later_writes(self, backend):
        database = _scratch_database(paged=(backend == "paged"))
        before = _rows(database.relation("r"))
        snapshot = database.pin_snapshot()
        database.relation("r").insert({"k": 99, "v": 990})
        database.relation("r").delete_key(0)
        assert _rows(snapshot.relation("r")) == before
        assert _rows(database.relation("r")) != before
        snapshot.release()

    def test_pin_during_transaction_sees_pre_transaction_state(self):
        database = _scratch_database()
        before = _rows(database.relation("r"))
        committed_version = database.statistics.mutation_epoch
        journal = database.begin_transaction()
        database.relation("r").insert({"k": 50, "v": 500})
        database.relation("r").delete_key(1)
        snapshot = database.pin_snapshot()
        # The overlay serves the committed image, not the journaled one.
        assert _rows(snapshot.relation("r")) == before
        assert snapshot.data_version == committed_version
        database.commit_transaction(journal)
        database.end_transaction(journal)
        # The released transaction does not retroactively change the pin.
        assert _rows(snapshot.relation("r")) == before
        snapshot.release()
        after = database.pin_snapshot()
        assert _rows(after.relation("r")) == _rows(database.relation("r"))
        assert after.data_version == database.statistics.mutation_epoch
        after.release()

    def test_pin_survives_rollback(self):
        database = _scratch_database()
        before = _rows(database.relation("r"))
        journal = database.begin_transaction()
        database.relation("r").clear()
        snapshot = database.pin_snapshot()
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        assert _rows(snapshot.relation("r")) == before
        assert _rows(database.relation("r")) == before
        snapshot.release()

    def test_snapshot_relations_refuse_writes(self):
        database = _scratch_database()
        with database.pin_snapshot() as snapshot:
            view = snapshot.relation("r")
            for mutate in (
                lambda: view.insert({"k": 7, "v": 70}),
                lambda: view.delete_key(0),
                lambda: view.clear(),
                lambda: view.assign([]),
            ):
                with pytest.raises(SnapshotError):
                    mutate()

    def test_release_is_idempotent_and_tracked(self):
        database = _scratch_database()
        registry = database._snapshots
        snapshot = database.pin_snapshot()
        assert registry.active == 1
        snapshot.release()
        snapshot.release()
        assert registry.active == 0
        assert snapshot.released

    def test_relation_versions_move_only_with_their_relation(self):
        database = _scratch_database()
        database.create_relation("other", [("k", INTEGER)], key=["k"])
        first = database.pin_snapshot()
        first.release()
        database.relation("other").insert({"k": 1})
        second = database.pin_snapshot()
        second.release()
        assert (
            second.relation_versions["r"] == first.relation_versions["r"]
        ), "untouched relation must keep its contents version"
        assert second.relation_versions["other"] > first.relation_versions["other"]


class TestCursorRouting:
    def test_connection_cursor_runs_on_a_snapshot(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor().execute(PROFESSORS_TEXT)
        assert figure1._snapshots.active == 1
        assert cursor.fetchall()
        assert figure1._snapshots.active == 0
        connection.close()

    def test_session_cursor_reads_its_own_writes(self, figure1):
        connection = connect(figure1)
        scratch = figure1.create_relation(
            "scratch", [("k", INTEGER), ("v", INTEGER)], key=["k"]
        )
        with connection.session() as session:
            scratch.insert({"k": 1, "v": 10})
            cursor = session.cursor().execute(
                "[<s.k> OF EACH s IN scratch: (s.v = 10)]"
            )
            assert figure1._snapshots.own_pins == 1  # the statement pin
            assert [record.values for record in cursor.fetchall()] == [(1,)]
            # A concurrent connection-level cursor must NOT see the
            # uncommitted insert: its pin serves the committed overlay.
            outside = connection.cursor().execute(
                "[<s.k> OF EACH s IN scratch: (s.v = 10)]"
            )
            assert figure1._snapshots.active == 1 and figure1._snapshots.own_pins == 0
            assert outside.fetchall() == []
        connection.close()

    def test_open_snapshot_cursor_is_unmoved_by_writer_commits(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor().execute(EXAMPLE_21_TEXT)
        first = cursor.fetchone()
        assert first is not None
        with connection.session():
            figure1.relation("employees").delete_key("white")
        rest = cursor.fetchall()
        fresh = connect(figure1_database()).execute(EXAMPLE_21_TEXT).fetchall()
        assert [first.values, *[r.values for r in rest]] == [
            r.values for r in fresh
        ]
        connection.close()

    def test_drained_snapshot_cursor_releases_its_pin(self, figure1):
        connection = connect(figure1)
        registry = figure1._snapshots
        cursor = connection.cursor().execute(PROFESSORS_TEXT)
        assert registry.active == 1
        cursor.fetchall()
        assert registry.active == 0
        connection.close()

    def test_discarded_snapshot_cursor_releases_its_pin(self, figure1):
        connection = connect(figure1)
        registry = figure1._snapshots
        cursor = connection.cursor().execute(PROFESSORS_TEXT)
        cursor.fetchone()
        cursor.close()
        assert registry.active == 0
        connection.close()

    def test_snapshot_statistics_merge_into_the_shared_tracker(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor().execute(PROFESSORS_TEXT)
        rows = cursor.fetchall()
        private = cursor.statistics["relations"]["employees"]
        assert private["elements_read"] >= len(rows)
        shared = figure1.statistics.as_dict()["relations"]["employees"]
        assert shared["elements_read"] >= private["elements_read"]
        connection.close()


class TestEveryDoorReadsAPin:
    """Every front-door entry point runs its execution on a pin — a
    statement pin inside a session's transaction, a committed pin anywhere
    else — and holds it exactly as long as its result is open."""

    DOORS = {
        "connection cursor": lambda c, s, h: c.cursor().execute(STATUS_PARAM_TEXT, _PROFESSOR),
        "session cursor": lambda c, s, h: c.session().cursor().execute(
            STATUS_PARAM_TEXT, _PROFESSOR),
        "session cursor in a transaction": lambda c, s, h: s.cursor().execute(
            STATUS_PARAM_TEXT, _PROFESSOR),
        "service.execute": lambda c, s, h: c.service.execute(STATUS_PARAM_TEXT, _PROFESSOR),
        "execute_batch": lambda c, s, h: c.service.execute_batch(
            [(STATUS_PARAM_TEXT, _PROFESSOR)] * 2),
        "executemany": lambda c, s, h: c.executemany(STATUS_PARAM_TEXT, [_PROFESSOR] * 2),
        "PreparedQuery.execute": lambda c, s, h: h.execute(_PROFESSOR),
    }

    @pytest.mark.parametrize("door", list(DOORS))
    def test_the_door_holds_a_pin_while_its_result_is_open(self, figure1, door, monkeypatch):
        registry = figure1._snapshots
        seen = []
        execute_plan = QueryEngine.execute_plan

        def observed(engine, plan, *args, source=None, **kwargs):
            seen.append((type(source).__name__, registry.active, source.in_transaction))
            return execute_plan(engine, plan, *args, source=source, **kwargs)

        monkeypatch.setattr(QueryEngine, "execute_plan", observed)
        connection = connect(figure1)
        session = connection.session()
        session.begin()
        handle = connection.prepare(STATUS_PARAM_TEXT)
        opened = self.DOORS[door](connection, session, handle)
        own = door == "session cursor in a transaction"
        assert seen and all(entry == ("DatabaseSnapshot", 1, own) for entry in seen), seen
        if hasattr(opened, "fetchall"):  # a cursor
            lazy = door != "executemany"
            assert registry.active == int(lazy) and registry.own_pins == int(lazy and own)
            rows = opened.fetchall()
        else:  # eager: drained, its pin released
            assert registry.active == 0
            rows = opened.rows if hasattr(opened, "rows") else opened[-1].rows
        assert rows and registry.active == 0 and registry.own_pins == 0
        session.rollback()
        connection.close()


class TestEveryEndReleasesThePin:
    """However a snapshot cursor's result set ends — the first fetch is not
    required — its pin is released and its private counters are merged into
    the shared tracker, once; after that, writers copy nothing for it."""

    #: A constant-matrix plan (``execute`` plans it and reads nothing) and a
    #: join pipeline (``execute`` runs the collection phase and returns with the
    #: pipeline wired); either way not one frame has started.
    QUERIES = pytest.mark.parametrize(
        "query", [PROFESSORS_TEXT, EXAMPLE_21_TEXT], ids=["selection", "streaming"]
    )

    @staticmethod
    def _employee_scans(statistics: dict) -> int:
        return statistics["relations"].get("employees", {}).get("scans", 0)

    def _assert_nothing_is_held(self, database, merged_scans: int) -> None:
        assert database._snapshots.active == 0
        assert self._employee_scans(database.statistics.as_dict()) == merged_scans
        employees = database.relation("employees")
        held = employees._elements
        employees.insert({"enr": 9100, "ename": "Latecomer", "estatus": "student"})
        assert employees._elements is held, "a writer copied the dict for a pin nobody holds"

    @QUERIES
    def test_close_before_the_first_fetch(self, figure1, query):
        connection = connect(figure1)
        figure1.reset_statistics()
        cursor = connection.cursor().execute(query)
        assert figure1._snapshots.active == 1
        scans = self._employee_scans(cursor.statistics)
        # The collection phase ran inside execute; a selection reads when fetched.
        assert scans == (0 if query is PROFESSORS_TEXT else 1)
        cursor.close()
        cursor.close()
        assert self._employee_scans(cursor.statistics) == scans  # still this execution's
        self._assert_nothing_is_held(figure1, scans)
        connection.close()
        self._assert_nothing_is_held(figure1, scans)

    @QUERIES
    def test_replaced_by_the_next_execute(self, figure1, query):
        connection = connect(figure1)
        figure1.reset_statistics()
        cursor = connection.cursor()
        scans = 0
        for _ in range(3):
            # What the replaced execution read: nothing since its execute.
            scans += self._employee_scans(cursor.statistics) if cursor.result is not None else 0
            cursor.execute(query)
            assert figure1._snapshots.active == 1
        assert cursor.fetchall()
        scans += self._employee_scans(cursor.statistics)
        self._assert_nothing_is_held(figure1, scans)
        connection.close()

    @QUERIES
    def test_dropped_by_connection_close(self, figure1, query):
        connection = connect(figure1)
        # The first sighting: the collection memo stores on the second.
        connection.execute(query).fetchall()
        figure1.reset_statistics()
        unfetched = connection.cursor().execute(query)
        midway = connection.cursor().execute(query)
        assert midway.fetchone() is not None
        assert figure1._snapshots.active == 2
        connection.close()
        # Each execution's final stamp: a selection scans when first fetched.
        scans = self._employee_scans(unfetched.statistics) + self._employee_scans(
            midway.statistics
        )
        assert scans == 1  # the second streaming execution reuses the first's collection
        self._assert_nothing_is_held(figure1, scans)

    def test_a_failed_execute_ends_the_result_before_it(self, figure1):
        connection = connect(figure1)
        figure1.reset_statistics()
        cursor = connection.cursor().execute(STATUS_PARAM_TEXT, {"status": "professor"})
        scans = self._employee_scans(cursor.statistics)
        with pytest.raises(BindingError):
            cursor.execute(STATUS_PARAM_TEXT, {"status": "dean"})
        # Neither the replaced result's pin nor the failed request's survives.
        self._assert_nothing_is_held(figure1, scans)
        connection.close()

    def test_an_error_while_fetching_releases_too(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor().execute(EXAMPLE_21_TEXT)

        def failing():
            raise RuntimeError("the pipeline broke")
            yield

        cursor.result.combination.stream._chunks = failing()
        with pytest.raises(RuntimeError, match="the pipeline broke"):
            cursor.fetchall()
        assert figure1._snapshots.active == 0
        connection.close()


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_snapshot_rows_byte_identical_to_the_engine_door(self, backend):
        database = build_university_database(scale=2, paged=(backend == "paged"))
        engine = QueryEngine(database)
        connection = connect(database)
        for query in _MATRIX:
            pinned = [record.values for record in connection.execute(query).fetchall()]
            assert pinned == [record.values for record in engine.run(query).rows], query
        connection.close()

    def test_repeat_snapshot_executions_are_deterministic(self, figure1):
        connection = connect(figure1)
        runs = [
            [r.values for r in connection.execute(EXAMPLE_21_TEXT).fetchall()]
            for _ in range(5)
        ]
        assert all(run == runs[0] for run in runs)
        connection.close()

    def test_snapshot_collection_memo_survives_unrelated_writes(self, figure1):
        scratch = figure1.create_relation(
            "scratch", [("k", INTEGER)], key=["k"]
        )
        connection = connect(figure1)
        connection.execute(EXAMPLE_21_TEXT).fetchall()  # stored on its second sighting
        first = connection.execute(EXAMPLE_21_TEXT).fetchall()
        prepared = connection.service._admit(EXAMPLE_21_TEXT, None)
        assert len(prepared._collections) == 1
        with connection.session():
            scratch.insert({"k": 1})
        cursor = connection.cursor().execute(EXAMPLE_21_TEXT)
        rows = cursor.fetchall()
        assert [r.values for r in rows] == [r.values for r in first]
        # The memoized collection served the repeat: no fresh employee scan.
        assert cursor.statistics["relations"].get("employees", {}).get(
            "scans", 0
        ) == 0
        connection.close()

    def test_snapshot_collection_memo_invalidates_on_relevant_writes(self, figure1):
        connection = connect(figure1)
        baseline = [
            r.values for r in connection.execute(PUBLISHING_TEACHERS_TEXT).fetchall()
        ]
        assert baseline
        with connection.session():
            figure1.relation("timetable").clear()
        assert connection.execute(PUBLISHING_TEACHERS_TEXT).fetchall() == []
        connection.close()


    @staticmethod
    def _both_sources(connection, handle, parameters=None):
        """``handle``'s rows through a connection cursor (a committed pin) and
        a session cursor inside a transaction (its statement pin)."""
        pinned = connection.cursor().execute(handle, parameters)
        with connection.session() as session:
            statement = session.cursor().execute(handle, parameters)
            assert connection.database._snapshots.own_pins == 1
            return (
                [record.values for record in pinned.fetchall()],
                [record.values for record in statement.fetchall()],
            )

    def test_one_handle_gives_the_same_rows_in_the_same_order_on_both_sources(
        self, library_requests
    ):
        """Every library text of both workloads and the five e2e templates."""
        for database, text, binding in library_requests:
            with connect(database) as connection:
                handle = connection.prepare(text)
                pinned, statement = self._both_sources(connection, handle, binding)
                assert pinned == statement, (text, binding)
                assert pinned == [r.values for r in handle.execute(binding).rows]

    def test_committed_and_statement_pins_choose_the_same_join_orders(self):
        text = (
            "[<e.ename> OF EACH e IN employees: SOME p IN papers (SOME t IN timetable"
            " ((e.enr <> p.penr) AND (e.enr = t.tenr) AND (p.pyear = 1977)))]"
        )
        orders = {}
        for source in ("committed", "statement"):
            database = build_university_database(scale=1)
            connection = connect(database)
            handle = connection.prepare(text)
            if source == "committed":
                cursor = connection.cursor()
                cursor.execute(handle).fetchall()
            else:
                with connection.session() as session:
                    cursor = session.cursor()
                    cursor.execute(handle).fetchall()
            orders[source] = cursor.result.combination.join_orders
            connection.close()
        assert orders["committed"] and all(orders["committed"]), "no join order was chosen"
        assert orders["committed"] == orders["statement"]


class _ProbeLock:
    """A registry-lock wrapper observing state at every critical-section exit."""

    def __init__(self, inner, on_exit):
        self._inner = inner
        self._on_exit = on_exit

    def __enter__(self):
        self._inner.acquire()
        return self

    def __exit__(self, *exc_info):
        self._on_exit()
        self._inner.release()

    def acquire(self, *args, **kwargs):
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        self._inner.release()


class TestRegistryLockDiscipline:
    """Review fixes: everything a concurrent ``pin()`` reads under the
    registry lock — element dicts, contents versions, the catalog itself —
    must only ever change inside that lock's critical sections."""

    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_version_bump_is_atomic_with_the_dict_write(self, backend):
        # A pin landing between a mutator's dict write and its version bump
        # would pair new contents with the old version token, poisoning the
        # snapshot collection memo.  Observe (contents, version) at every
        # lock release: one version must never identify two contents.
        database = _scratch_database(paged=(backend == "paged"))
        relation = database.relation("r")
        registry = database._snapshots
        observed: list[tuple[frozenset, int]] = []

        def probe():
            frozen = frozenset(
                (key, tuple(record.values))
                for key, record in relation._elements.items()
            )
            observed.append((frozen, relation._version))

        registry.lock = _ProbeLock(registry.lock, probe)
        relation.insert({"k": 90, "v": 900})
        relation.insert_raw(relation._as_record({"k": 91, "v": 910}))
        relation.insert_raw(relation._as_record({"k": 92, "v": 920}))
        relation.delete_key(90)
        relation.assign([{"k": 1, "v": 10}, {"k": 2, "v": 20}])
        relation.clear()
        assert len(observed) >= 6
        contents_by_version: dict[int, frozenset] = {}
        for frozen, version in observed:
            if version in contents_by_version:
                assert contents_by_version[version] == frozen, (
                    "two different contents observed under version "
                    f"{version}: the bump escaped the locked section"
                )
            else:
                contents_by_version[version] = frozen

    def test_catalog_changes_happen_under_the_registry_lock(self):
        # pin() iterates database._relations under the registry lock and
        # outside the execution lock; DDL must take the same lock around
        # the catalog dict mutation or a pinning reader can crash with
        # "dictionary changed size during iteration".
        database = _scratch_database()
        registry = database._snapshots
        held = []

        class _TrackedLock(_ProbeLock):
            def __enter__(self):
                result = super().__enter__()
                held.append(True)
                return result

            def __exit__(self, *exc_info):
                held.pop()
                return super().__exit__(*exc_info)

        registry.lock = _TrackedLock(registry.lock, lambda: None)

        class _GuardedCatalog(dict):
            def __setitem__(self, key, value):
                assert held, f"catalog insert of {key!r} outside the registry lock"
                super().__setitem__(key, value)

            def pop(self, key, *default):
                assert held, f"catalog pop of {key!r} outside the registry lock"
                return super().pop(key, *default)

        database._relations = _GuardedCatalog(database._relations)
        database.create_relation("fresh", [("k", INTEGER)], key=["k"])
        database.relation("fresh").insert({"k": 1})
        with database.pin_snapshot() as snapshot:
            assert snapshot.has_relation("fresh")
        database.drop_relation("fresh")

    def test_concurrent_ddl_never_breaks_a_pinning_reader(self):
        # Stress pendant of the deterministic test above: readers pin in a
        # tight loop while a writer grows the catalog.
        import threading

        database = _scratch_database()
        failures: list[BaseException] = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                try:
                    with database.pin_snapshot() as snapshot:
                        for relation in snapshot.relations():
                            len(relation)
                except BaseException as exc:  # pragma: no cover - failure path
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for index in range(150):
                database.create_relation(
                    f"ddl_{index}", [("k", INTEGER)], key=["k"]
                )
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not failures

    def test_stale_transaction_completion_is_ignored(self):
        # transaction_finished carries the journal identity: a rollback
        # completion from a previous transaction must not clear a successor
        # transaction's overlay state.
        database = _scratch_database()
        registry = database._snapshots
        stale, current = object(), object()
        registry.transaction_started(stale)
        registry.transaction_finished(stale)
        registry.transaction_started(current)
        registry.overlay["r"] = ({}, 0)
        registry.transaction_finished(stale)  # late duplicate: ignored
        assert registry.tx_journal is current
        assert "r" in registry.overlay
        registry.transaction_finished(current)
        assert registry.tx_journal is None
        assert not registry.overlay


class TestSharedStatisticsDiscipline:
    def test_snapshot_execution_does_not_reset_the_shared_tracker(self, figure1):
        # Pinned executions run concurrently; resetting the shared tracker
        # from one would clobber the counters of every other.  Plant a
        # counter no query ever touches and check it survives a full
        # snapshot execute + drain.
        connection = connect(figure1)
        figure1.statistics.recovered_transactions = 3
        cursor = connection.cursor().execute(PROFESSORS_TEXT)
        assert cursor.fetchall()
        assert figure1.statistics.recovered_transactions == 3
        connection.close()

    def test_merge_and_reset_serialize_on_the_statistics_lock(self):
        from repro.relational.statistics import AccessStatistics

        shared = AccessStatistics()
        private = AccessStatistics()
        private.record_scan("r")
        private.record_element_read("r", 4)
        locked_sections = []

        class _CountingLock:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                self._inner.acquire()
                locked_sections.append(True)
                return self

            def __exit__(self, *exc_info):
                self._inner.release()

        shared._lock = _CountingLock(shared._lock)
        shared.merge(private)
        shared.reset()
        assert len(locked_sections) == 2
        assert shared.as_dict()["relations"] == {}


_POINT = "[<e.enr, e.ename, e.estatus> OF EACH e IN employees: (e.enr = $enr)]"
_RANGE = "[<p.ptitle, p.pyear> OF EACH p IN papers: (p.pyear <= $year)]"


class TestIndexProbesThroughTheFrontDoor:
    """A default ``connect()`` cursor — a pinned snapshot — probes permanent indexes."""

    @staticmethod
    def _counters(cursor, relation: str) -> tuple[int, int, int]:
        counters = cursor.statistics["relations"].get(relation, {})
        return (
            counters.get("scans", 0),
            counters.get("elements_read", 0),
            counters.get("index_probes", 0),
        )

    @pytest.mark.parametrize("backend", ["memory", "paged"])
    def test_prepared_point_query_is_one_probe_and_one_element(self, backend):
        database = build_university_database(scale=2, paged=(backend == "paged"))
        database.create_index("employees", "enr", operator="=")
        employees = database.relation("employees")
        size = len(employees)
        built = database.statistics.as_dict()["relations"]["employees"]["scans"]
        connection = connect(database)
        cursor = connection.cursor()
        # At the creation version the view create_index published is shared.
        assert len(cursor.execute(_POINT, {"enr": 3}).fetchall()) == 1
        assert self._counters(cursor, "employees") == (0, 1, 1)
        employees.assign(employees.elements())  # the same contents, a new version
        # The first execution at a new contents version scans, as if there
        # were no index: nothing yet says the contents outlive one read.
        assert len(cursor.execute(_POINT, {"enr": 3}).fetchall()) == 1
        assert self._counters(cursor, "employees") == (1, size, 0)
        assert cursor.result.access_paths["e"] == "scan employees"
        # The second builds the view: the one scan is charged to it, on its
        # private tracker, and its access path says so.
        assert len(cursor.execute(_POINT, {"enr": 3}).fetchall()) == 1
        assert self._counters(cursor, "employees") == (1, size + 1, 1)
        assert f"builds the view: {size} reads" in cursor.result.access_paths["e"]
        # Every later execution is charged the probe and the fetched element.
        for enr in (3, 5, 1):
            rows = cursor.execute(_POINT, {"enr": enr}).fetchall()
            assert [record["enr"] for record in rows] == [enr]
            assert self._counters(cursor, "employees") == (0, 1, 1)
            assert cursor.statistics["index_probes"] == 1
            assert cursor.result.access_paths["e"].startswith("probe ind_employees_enr")
            assert "builds" not in cursor.result.access_paths["e"]
        assert "e: probe ind_employees_enr" in connection.service.engine.explain(_POINT)
        # Private counters still merge into the database's tracker at release.
        shared = database.statistics.as_dict()
        assert shared["index_probes"] == 5
        assert shared["relations"]["employees"]["scans"] == built + 2
        connection.close()

    def test_range_read_probes_the_sorted_view(self, figure1):
        figure1.create_index("papers", "pyear", operator="<=")
        connection = connect(figure1)
        cursor = connection.cursor()
        cursor.execute(_RANGE, {"year": 1975}).fetchall()  # scans
        cursor.execute(_RANGE, {"year": 1975}).fetchall()  # builds the view
        rows = cursor.execute(_RANGE, {"year": 1976}).fetchall()
        expected = [r for r in figure1.relation("papers") if r["pyear"] <= 1976]
        assert sorted(r.values for r in rows) == sorted(
            (r["ptitle"], r["pyear"]) for r in expected
        )
        assert self._counters(cursor, "papers") == (0, len(expected), 1)
        connection.close()

    def test_a_reader_right_after_a_commit_scans_and_the_one_after_it_builds(self, figure1):
        figure1.create_index("employees", "enr", operator="=")
        employees = figure1.relation("employees")
        connection = connect(figure1)
        cursor = connection.cursor()
        for _ in range(3):
            cursor.execute(_POINT, {"enr": 1}).fetchall()
        assert self._counters(cursor, "employees") == (0, 1, 1)
        for enr in (98, 99):  # written between every two reads: never built
            with connection.session():
                employees.insert({"enr": enr, "ename": "Newcomer", "estatus": "student"})
            rows = cursor.execute(_POINT, {"enr": enr}).fetchall()
            assert [record["enr"] for record in rows] == [enr]
            assert self._counters(cursor, "employees") == (1, len(employees), 0)
        assert figure1._indexes["employees", "enr"].snapshot_view[1] is None
        cursor.execute(_POINT, {"enr": 99}).fetchall()
        assert self._counters(cursor, "employees") == (1, len(employees) + 1, 1)  # builds
        cursor.execute(_POINT, {"enr": 99}).fetchall()
        assert self._counters(cursor, "employees") == (0, 1, 1)  # shared again
        connection.close()

    def test_only_the_winning_candidate_is_built(self, figure1):
        figure1.create_index("employees", "enr", operator="=")
        figure1.create_index("employees", "estatus", operator="=")
        employees = figure1.relation("employees")
        # Both builds are published at the creation version; a write moves
        # the contents past it, so the reads below must derive their own.
        employees.assign(employees.elements())
        query = (
            "[<e.ename> OF EACH e IN employees: "
            "(e.enr = $enr) AND (e.estatus = professor)]"
        )
        connection = connect(figure1)
        cursor = connection.cursor()
        for _ in range(3):
            cursor.execute(query, {"enr": 1}).fetchall()
        assert cursor.result.access_paths["e"].startswith("probe ind_employees_enr")
        assert figure1._indexes["employees", "enr"].snapshot_view[1] is not None
        assert figure1._indexes["employees", "estatus"].snapshot_view[1] is None
        connection.close()

    def test_session_cursors_read_their_own_writes_by_key(self, figure1):
        figure1.create_index("employees", "enr", operator="=")
        connection = connect(figure1)
        with connection.session() as session:
            figure1.relation("employees").insert(
                {"enr": 77, "ename": "Pending", "estatus": "student"}
            )
            cursor = session.cursor()
            rows = cursor.execute(_POINT, {"enr": 77}).fetchall()
            assert [record["enr"] for record in rows] == [77]
            # ... which a concurrent snapshot cursor, on the committed image, cannot see.
            assert connection.cursor().execute(_POINT, {"enr": 77}).fetchall() == []
            session.rollback()
        connection.close()


class TestConstantMatrixRows:
    """The positional row path of constant-matrix queries (every Strategy 3
    point and range query) returns exactly what the per-row path did: rows in
    nested-loop order, the first of equal rows kept."""

    @staticmethod
    def _first_occurrences(rows) -> list[tuple]:
        return list(dict.fromkeys(rows))

    def test_duplicate_projected_rows_collapse_in_first_occurrence_order(self, figure1):
        query = "[<e.estatus> OF EACH e IN employees: (e.enr >= 2)]"
        connection = connect(figure1)
        cursor = connection.cursor().execute(query)
        rows = [record.values for record in cursor.fetchall()]
        assert cursor.result.prepared.constant is True
        expected = self._first_occurrences(
            (e["estatus"],) for e in figure1.relation("employees") if e["enr"] >= 2
        )
        assert len(expected) < len(figure1.relation("employees")) - 1  # duplicates existed
        assert rows == expected
        assert sorted(rows) == sorted(r.values for r in execute_naive(figure1, query))
        connection.close()

    def test_two_free_variables_enumerate_the_product_in_nested_loop_order(self, figure1):
        query = (
            "[<e.estatus, c.clevel, e.enr> OF EACH e IN employees, EACH c IN courses: "
            "(e.enr >= 6) AND (c.cnr >= 1)]"
        )
        connection = connect(figure1)
        cursor = connection.cursor().execute(query)
        rows = [record.values for record in cursor.fetchall()]
        assert cursor.result.prepared.constant is True
        expected = self._first_occurrences(
            (e["estatus"], c["clevel"], e["enr"])
            for e in figure1.relation("employees") if e["enr"] >= 6
            for c in figure1.relation("courses") if c["cnr"] >= 1
        )
        assert rows == expected
        assert sorted(rows) == sorted(r.values for r in execute_naive(figure1, query))
        assert [column.name for column in cursor.description] == ["estatus", "clevel", "enr"]
        connection.close()

    def test_a_false_matrix_and_an_empty_range_give_no_rows(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor()
        assert cursor.execute("[<e.enr> OF EACH e IN employees: (e.enr >= 1000)]").fetchall() == []
        assert cursor.execute(
            "[<e.enr> OF EACH e IN employees: (e.enr = 1) AND (e.enr = 2)]"
        ).fetchall() == []
        connection.close()
