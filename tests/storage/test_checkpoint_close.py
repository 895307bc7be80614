"""Satellite: close() in ``checkpoint`` durability — flush before truncate.

In ``durability='checkpoint'`` mode, commits flush the WAL to the OS without
fsync, so at ``Database.close()`` time the log's durable watermark lags its
flushed tail.  ``close()`` runs a full checkpoint, whose contract is the
ordering under test here: **flush+fsync the WAL first**, then write the
snapshot, and only then truncate the log.  Were the truncation (or the
snapshot rename) to run against an unflushed buffer, the committed tail
would be gone.

The harness crashes the close at *every* storage write event it performs
(WAL flushes — torn and clean — the snapshot write/rename and the log's
truncation) and reopens: recovery must see every committed transaction every
time.  A rolled-back transaction must never resurface either.
"""

from __future__ import annotations

import pytest

from repro.config import DURABILITY_CHECKPOINT
from repro.relational.database import Database
from repro.storage.wal import CrashPoint, SimulatedCrash
from repro.types.scalar import INTEGER

_BATCHES = 4
_ROWS_PER_BATCH = 3


def _expected_rows() -> set[tuple]:
    return {
        (batch * _ROWS_PER_BATCH + i, batch)
        for batch in range(_BATCHES)
        for i in range(_ROWS_PER_BATCH)
    }


def _run_until_close(directory, crash_point=None) -> Database:
    """Open, commit ``_BATCHES`` transactions, roll one back; return open db.

    The crash point (if any) is armed only afterwards, so every event it
    counts or fires on belongs to ``close()``.
    """
    database = Database.open(directory, durability=DURABILITY_CHECKPOINT)
    relation = database.create_relation(
        "items",
        [("k", INTEGER), ("batch", INTEGER)],
        key=["k"],
    )
    for batch in range(_BATCHES):
        journal = database.begin_transaction()
        for i in range(_ROWS_PER_BATCH):
            relation.insert({"k": batch * _ROWS_PER_BATCH + i, "batch": batch})
        database.commit_transaction(journal)
        database.end_transaction(journal)
    # An aborted transaction: must never be visible after any crash.
    journal = database.begin_transaction()
    relation.insert({"k": 999, "batch": 999})
    database.abort_transaction(journal)
    database.end_transaction(journal)
    journal.rollback()
    database.crash_point = crash_point
    if database._wal is not None:
        database._wal.crash_point = crash_point
    return database


def _recovered_rows(directory) -> set[tuple]:
    database = Database.open(directory)
    try:
        return {
            tuple(record.values)
            for record in database.relation("items").scan()
        }
    finally:
        database.close()


def _close_events(tmp_path) -> list[str]:
    probe = CrashPoint()
    database = _run_until_close(str(tmp_path / "probe"), crash_point=probe)
    database.close()
    return probe.events


def test_clean_close_preserves_every_committed_transaction(tmp_path):
    directory = str(tmp_path / "clean")
    _run_until_close(directory).close()
    assert _recovered_rows(directory) == _expected_rows()


def test_every_close_crash_point_recovers_every_commit(tmp_path):
    events = _close_events(tmp_path)
    # The order under test: the log is made durable before the snapshot is
    # written and renamed, and truncated only then; the truncated log takes
    # its CHECKPOINT marker, and the closing log its final flush.
    assert [event.split()[0] for event in events] == [
        "wal-flush", "snapshot-write", "snapshot-rename", "wal-truncate", "wal-flush",
        "wal-flush",
    ], events
    total = len(events)
    failures = []
    for k in range(total):
        for torn in (False, True):
            directory = str(tmp_path / f"crash-{k}-{'torn' if torn else 'clean'}")
            crash_point = CrashPoint(crash_at=k, torn=torn)
            database = _run_until_close(directory, crash_point=crash_point)
            with pytest.raises(SimulatedCrash):
                database.close()
            if _recovered_rows(directory) != _expected_rows():
                failures.append((k, torn, crash_point.events[k]))
    assert not failures, (
        "a crash during close() lost committed transactions at: "
        + "; ".join(f"event {k} ({desc})" for k, torn, desc in failures)
    )


def test_a_crash_between_rename_and_truncate_recovers_the_renamed_snapshot(tmp_path):
    """The window DESIGN's checkpoint protocol calls benign: the new snapshot
    is in place while the log still holds every commit frame it absorbed.
    Recovery starts from that snapshot and skips each of those frames by the
    watermark it records — nothing is replayed twice."""
    crash_at = _close_events(tmp_path).index("wal-truncate")
    directory = str(tmp_path / "window")
    crash_point = CrashPoint(crash_at=crash_at)
    database = _run_until_close(directory, crash_point=crash_point)
    with pytest.raises(SimulatedCrash, match="wal-truncate"):
        database.close()
    reopened = Database.open(directory)
    try:
        report = reopened.recovery_report
        assert report.records_replayed == 0 and not report.replayed_transactions
        assert report.records_skipped == _BATCHES * _ROWS_PER_BATCH
        assert {tuple(record.values) for record in reopened.relation("items")} == (
            _expected_rows()
        )
    finally:
        reopened.close()


def test_recovery_after_close_crash_is_idempotent(tmp_path):
    directory = str(tmp_path / "reopen")
    database = _run_until_close(
        directory, crash_point=CrashPoint(crash_at=0, torn=True)
    )
    with pytest.raises(SimulatedCrash):
        database.close()
    for _ in range(3):
        assert _recovered_rows(directory) == _expected_rows()
