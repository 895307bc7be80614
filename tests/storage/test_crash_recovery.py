"""The fault-injection harness: crash the database at every write the
scripted workload performs — cleanly and with torn tails — and prove that
reopening always recovers exactly a committed prefix, equal (every
relation's elements in iteration order, schemas, index catalog) to a
never-crashed control run stopped at the same durability point."""

from __future__ import annotations

import json
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DURABILITY_COMMIT
from repro.relational.database import Database
from repro.storage.serialize import encode_schema
from repro.storage.snapshot import snapshot_path, wal_path
from repro.storage.wal import WAL_KINDS, CrashPoint, SimulatedCrash, scan_wal
from repro.types.scalar import INTEGER, CharArray

# ----------------------------------------------------------------------------------
# The scripted workload.  Every numbered point is a *durability point*: after
# it, the on-disk state is one the recovery contract must be able to return.


def run_workload(directory, crash_point=None, at_point=None):
    """Run the scripted workload; call ``at_point(n)`` after durability point n.

    Every statement that makes state durable on its own — the open, each DDL
    statement (DDL is not transactional: each one checkpoints separately),
    each commit, each rollback, the explicit checkpoint, the close — is
    followed by a durability point.
    """
    point = 0

    def mark():
        nonlocal point
        point += 1
        if at_point is not None:
            at_point(point)

    def commit(database, journal):
        database.commit_transaction(journal)
        database.end_transaction(journal)

    database = Database.open(
        directory, durability=DURABILITY_COMMIT, crash_point=crash_point
    )
    mark()  # opened: empty catalog, initial checkpoint on disk
    relation = database.create_relation(
        "items",
        [("k", INTEGER), ("label", CharArray(6, "itemlabel"))],
        key=["k"],
    )
    mark()
    database.create_index("items", "label")
    mark()
    database.create_index("items", "k", operator="<=")
    mark()
    journal = database.begin_transaction()
    for k in range(6):
        relation.insert({"k": k, "label": f"row{k}"})
    commit(database, journal)
    mark()
    journal = database.begin_transaction()
    relation.delete_key(2)
    relation.delete_key(4)
    relation.insert({"k": 6, "label": "late"})
    commit(database, journal)
    mark()
    # An aborted transaction: must never be visible after any crash.
    journal = database.begin_transaction()
    relation.insert({"k": 99, "label": "ghost"})
    relation.delete_key(0)
    database.abort_transaction(journal)
    database.end_transaction(journal)
    journal.rollback()
    mark()
    database.checkpoint()
    mark()
    journal = database.begin_transaction()
    relation.assign(
        [{"k": k, "label": f"new{k}"} for k in (1, 3, 5, 7)]
    )
    commit(database, journal)
    mark()
    journal = database.begin_transaction()
    relation.clear()
    relation.insert({"k": 10, "label": "final"})
    commit(database, journal)
    mark()
    database.close()
    mark()


# ----------------------------------------------------------------------------------
# Canonical on-disk state.  Both sides of every comparison go through
# Database.open first, so recovery's own work (replay + fresh checkpoint)
# applies identically to control and crashed runs.


def canonical_state(database) -> dict:
    relations = {
        relation.name: {
            "schema": encode_schema(relation.schema),
            # Iteration order included: what a scan of the relation yields.
            "elements": [list(record.values) for record in relation.elements()],
        }
        for relation in database.relations()
    }
    indexes = sorted(
        (name, field, type(database.index_for(name, field)).__name__)
        for name, field in database.indexes()
    )
    return {"relations": relations, "indexes": indexes}


def recovered_state(directory) -> dict:
    database = Database.open(directory)
    try:
        return canonical_state(database)
    finally:
        database.close()


@pytest.fixture(scope="module")
def control_states(tmp_path_factory):
    """Canonical state at every durability point of a never-crashed run."""
    base = tmp_path_factory.mktemp("control")
    live = str(base / "live")
    copies = {}

    def snapshot(point):
        copies[point] = str(base / f"point{point}")
        shutil.copytree(live, copies[point])

    run_workload(live, at_point=snapshot)
    return {point: recovered_state(path) for point, path in copies.items()}


def _torn_kind(directory) -> str | None:
    """The kind of the torn frame a crashed directory's log ends on, if any."""
    path = wal_path(directory)
    damage = scan_wal(path)[1]
    if damage is None:
        return None
    with open(path, "rb") as log:
        log.seek(damage.offset)
        tail = log.read()
    return next((kind for kind in WAL_KINDS if f'"kind":"{kind}"'.encode() in tail), "")


def _total_crash_events(tmp_path_factory) -> tuple[int, list[str]]:
    probe = CrashPoint()  # counting mode: records events, never fires
    run_workload(str(tmp_path_factory.mktemp("probe") / "db"), crash_point=probe)
    return probe.count, probe.events


class TestCrashSweep:
    """The headline guarantee, k-swept over every write the workload makes."""

    def test_every_crash_point_recovers_a_committed_prefix(
        self, tmp_path_factory, control_states
    ):
        # After a crash between durability points p and p + 1 the recovered
        # state is the one at p or at p + 1: every acknowledged commit
        # survives, and nothing a later point did not acknowledge shows.
        total, events = _total_crash_events(tmp_path_factory)
        assert total >= 20, f"workload too small to be interesting: {events}"
        # Every kind of disk write the workload makes is swept: the log
        # flushes (each torn, too), the snapshot's write and rename, and the
        # log's truncation after the rename.
        assert {event.split()[0] for event in events} == {
            "wal-flush", "snapshot-write", "snapshot-rename", "wal-truncate",
        }, events
        failures, torn_kinds = [], set()
        for torn in (False, True):
            for k in range(total):
                directory = str(
                    tmp_path_factory.mktemp("sweep") / f"k{k}-{'torn' if torn else 'clean'}"
                )
                crash_point = CrashPoint(crash_at=k, torn=torn)
                reached = [0]
                with pytest.raises(SimulatedCrash):
                    run_workload(
                        directory, crash_point=crash_point, at_point=reached.append
                    )
                torn_kinds.add(_torn_kind(directory))
                state = recovered_state(directory)
                point = reached[-1]
                if state not in (control_states.get(point), control_states.get(point + 1)):
                    failures.append((k, torn, crash_point.events[k]))
        assert not failures, (
            "recovered state matched neither neighbouring durability point "
            f"after crashes at: {failures}"
        )
        # The torn sweep met a torn commit frame.
        assert "COMMIT" in torn_kinds, torn_kinds

    def test_recovery_is_idempotent_across_reopens(self, tmp_path_factory):
        # Crash mid-run, recover, and reopen twice more: the second and
        # third opens must find a clean log and identical state.
        directory = str(tmp_path_factory.mktemp("idem") / "db")
        with pytest.raises(SimulatedCrash):
            run_workload(directory, crash_point=CrashPoint(crash_at=12, torn=True))
        first = recovered_state(directory)
        database = Database.open(directory)
        assert database.recovery_report.clean  # the crash was absorbed
        database.close()
        assert recovered_state(directory) == first

    def test_aborted_transaction_never_resurfaces(self, tmp_path_factory, control_states):
        # Every durability point the sweep can land on excludes key 99.
        for state in control_states.values():
            items = state["relations"].get("items")
            if items is None:
                continue
            assert all(row[0] != 99 for row in items["elements"])


# ----------------------------------------------------------------------------------
# Directories written while relations still kept heap pages: the snapshot
# recorded each relation's page capacity.  The loader ignores the key.

#: The workload's durability points (see ``run_workload``).
DURABILITY_POINTS = range(1, 12)


def into_page_capacity_format(directory: str, capacity: int = 3) -> None:
    """Rewrite ``directory``'s snapshot the way it was written while relations
    kept heap pages: each relation's entry also carries a ``page_capacity``."""
    path = snapshot_path(directory)
    with open(path) as handle:
        snapshot = json.load(handle)
    for entry in snapshot["relations"]:
        entry["page_capacity"] = capacity
    with open(path, "w") as handle:
        json.dump(snapshot, handle)


class TestPageCapacityFormat:
    @pytest.mark.parametrize("point", DURABILITY_POINTS)
    def test_each_durability_point_recovers_alike_in_the_page_capacity_format(
        self, tmp_path, control_states, point
    ):
        # The directory as it stood at the point, its snapshot rewritten in
        # the older format and its log as it was: recovery replays the log
        # over the older snapshot and lands on the control state.
        assert sorted(control_states) == list(DURABILITY_POINTS)
        live, older = str(tmp_path / "live"), str(tmp_path / "older")

        def at_point(reached):
            if reached == point:
                shutil.copytree(live, older)
                into_page_capacity_format(older)

        run_workload(live, at_point=at_point)
        database = Database.open(older)
        try:
            assert database.recovery_report.clean, database.recovery_report.describe()
            assert canonical_state(database) == control_states[point]
        finally:
            database.close()
        with open(snapshot_path(older)) as handle:
            assert all("page_capacity" not in entry for entry in json.load(handle)["relations"])


# ----------------------------------------------------------------------------------
# Property: random workloads, random crash points — recovery always lands on
# the committed prefix predicted by a plain in-memory model.

_OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "assign", "clear", "abort")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=10,
)


def _apply(relation, model, op, key, value):
    if op == "insert":
        if key in model:
            return
        relation.insert({"k": key, "label": f"v{value}"})
        model[key] = f"v{value}"
    elif op == "delete":
        relation.delete_key(key)
        model.pop(key, None)
    elif op == "assign":
        replacement = dict(model)
        replacement[key] = f"v{value}"
        relation.assign(
            [{"k": k, "label": label} for k, label in replacement.items()]
        )
        model.clear()
        model.update(replacement)
    elif op == "clear":
        relation.clear()
        model.clear()


@given(ops=_OPS, crash_at=st.integers(min_value=0, max_value=80), torn=st.booleans())
@settings(deadline=None, max_examples=25)
def test_random_interleavings_recover_a_committed_prefix(ops, crash_at, torn):
    directory = tempfile.mkdtemp(prefix="crash-prop-")
    try:
        committed_states = [None, {}]  # before the catalog exists; after
        model: dict[int, str] = {}
        try:
            database = Database.open(
                directory,
                durability=DURABILITY_COMMIT,
                crash_point=CrashPoint(crash_at=crash_at, torn=torn),
            )
            relation = database.create_relation(
                "items",
                [("k", INTEGER), ("label", CharArray(4, "lbl"))],
                key=["k"],
            )
            for op, key, value in ops:
                journal = database.begin_transaction()
                if op == "abort":
                    relation.insert({"k": 50 + key, "label": "no"})
                    database.abort_transaction(journal)
                    database.end_transaction(journal)
                    journal.rollback()
                else:
                    _apply(relation, model, op, key, value)
                    database.commit_transaction(journal)
                    database.end_transaction(journal)
                    committed_states.append(dict(model))
            database.close()
        except SimulatedCrash:
            pass
        recovered = Database.open(directory)
        try:
            if "items" in recovered.relation_names():
                state = {
                    r.k: r.label.rstrip() for r in recovered.relation("items")
                }
            else:
                state = None
            assert state in committed_states, (
                f"recovered {state!r} is not a committed prefix of "
                f"{committed_states!r}"
            )
        finally:
            recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
