"""The disk-resident database lifecycle: open/checkpoint/close, durability
modes, directories written by older versions, DDL checkpoints, and the
``connect(path)`` front door."""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib

import pytest

import repro
from repro import DURABILITY_CHECKPOINT, DURABILITY_COMMIT, DURABILITY_OFF, connect
from repro.errors import StorageError, TransactionError
from repro.relational.database import Database
from repro.storage.snapshot import snapshot_path, wal_path
from repro.storage.wal import WriteAheadLog, scan_wal
from repro.types.scalar import INTEGER, CharArray


@contextlib.contextmanager
def committed(database):
    """One committed transaction at the Database level (no session layer)."""
    journal = database.begin_transaction()
    yield journal
    database.commit_transaction(journal)
    database.end_transaction(journal)


def make_relation(database, name="t"):
    return database.create_relation(
        name,
        [("k", INTEGER), ("label", CharArray(8, "labeltype"))],
        key=["k"],
    )


def keys(database, name="t"):
    return sorted(r.k for r in database.relation(name))


class TestOpenAndReopen:
    def test_fresh_open_writes_an_initial_checkpoint(self, tmp_path):
        database = Database.open(tmp_path)
        assert database.directory == str(tmp_path)
        assert os.path.exists(snapshot_path(str(tmp_path)))
        assert database.recovery_report.clean
        assert "replayed 0" in database.recovery_report.describe()
        database.close()

    def test_unknown_durability_mode_is_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Database.open(tmp_path, durability="paranoid")

    def test_name_defaults_to_the_directory(self, tmp_path):
        database = Database.open(tmp_path / "inventory")
        assert database.name == "inventory"
        database.close()

    def test_data_and_indexes_survive_close_and_reopen(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        database.create_index("t", "label")
        database.create_index("t", "k", operator="<=")
        with committed(database):
            for k in range(5):
                relation.insert({"k": k, "label": f"row{k}"})
        with committed(database):
            relation.delete_key(3)
        database.close()

        reopened = Database.open(tmp_path)
        assert keys(reopened) == [0, 1, 2, 4]
        assert reopened.index_for("t", "label") is not None
        assert reopened.index_for("t", "k") is not None
        assert sorted(reopened.indexes()) == [("t", "k"), ("t", "label")]
        # The reopened index actually probes (CharArray values are padded).
        index = reopened.index_for("t", "label")
        padded = reopened.relation("t").schema.field_type("label").coerce("row2")
        assert len(index.probe_operator("=", padded)) == 1
        reopened.close()

    def test_uncommitted_transaction_is_invisible_after_reopen(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "keep"})
        journal = database.begin_transaction()
        relation.insert({"k": 2, "label": "lose"})
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        database.close()
        reopened = Database.open(tmp_path)
        assert keys(reopened) == [1]
        reopened.close()

    def test_a_directory_in_the_page_capacity_format_opens_clean(self, tmp_path):
        """Snapshots once recorded each relation's heap page capacity.  Such
        a directory — here written by hand: that snapshot plus a log holding
        one commit frame past it — opens clean, the key ignored and the
        commit replayed, and the next checkpoint no longer writes it."""
        snapshot = {
            "format": 1, "name": "older", "last_lsn": 4, "next_txid": 2,
            "relations": [{
                "schema": {
                    "name": "t",
                    "fields": [["k", {"kind": "integer"}],
                               ["label", {"kind": "chararray", "length": 8, "name": "labeltype"}]],
                    "key": ["k"],
                },
                "page_capacity": 3,
                "rows": [[0, "row0    "], [1, "row1    "], [2, "row2    "], [3, "row3    "]],
            }],
            "indexes": [{"relation": "t", "field": "label", "operator": "="}],
        }
        commit = json.dumps({
            "lsn": 5, "kind": "COMMIT", "txid": 2,
            "ops": [["t", "insert", [9, "late    "]], ["t", "delete", [1]]],
        }, separators=(",", ":")).encode()
        with open(snapshot_path(str(tmp_path)), "w") as handle:
            json.dump(snapshot, handle)
        with open(wal_path(str(tmp_path)), "wb") as handle:  # length, CRC-32, payload
            handle.write(struct.pack("<II", len(commit), zlib.crc32(commit)) + commit)

        database = Database.open(tmp_path)
        report = database.recovery_report
        assert report.clean and report.replayed_transactions == [2], report.describe()
        assert [(r.k, r.label.rstrip()) for r in database.relation("t")] == [
            (0, "row0"), (2, "row2"), (3, "row3"), (9, "late"),
        ]
        padded = database.relation("t").schema.field_type("label").coerce("late")
        assert database.index_for("t", "label").probe_operator("=", padded) == [(9,)]
        database.close()
        with open(snapshot_path(str(tmp_path))) as handle:
            assert "page_capacity" not in json.load(handle)["relations"][0]


class TestDurabilityModes:
    def test_commit_mode_survives_an_abandoned_process(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "durable"})
        # No close(), no checkpoint: the process just vanishes.  The WAL's
        # committed suffix alone must reproduce the transaction.
        del database
        reopened = Database.open(tmp_path)
        assert keys(reopened) == [1]
        assert reopened.recovery_report.replayed_transactions == [1]
        reopened.close()

    def test_an_unpadded_delete_is_logged_under_the_stored_key(self, tmp_path):
        """ROADMAP 2d: ``delete_key("abc")`` on a packed-char-array key deletes
        the blank-padded element, the commit frame's delete op carries the
        canonical key, and crash recovery replays it."""
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = database.create_relation(
            "codes",
            [("code", CharArray(6, "codetype")), ("n", INTEGER)],
            key=["code"],
        )
        database.create_index("codes", "n")
        with committed(database):
            for n, code in enumerate(("abc", "abcdef", "x")):
                relation.insert({"code": code, "n": n})
        with committed(database):
            assert relation.delete_key("abc")          # unpadded, bare
            assert relation.delete_key(("x",))         # unpadded, tuple
            assert not relation.delete_key("nope")     # a miss logs nothing
        deletes = [
            argument
            for record in scan_wal(wal_path(str(tmp_path)))[0]
            if record["kind"] == "COMMIT"
            for _, op, argument in record["ops"]
            if op == "delete"
        ]
        assert deletes == [["abc   "], ["x     "]]
        # The process vanishes; the committed suffix of the log is replayed.
        del database, relation
        reopened = Database.open(tmp_path)
        assert reopened.recovery_report.replayed_transactions == [1, 2]
        assert [record.code for record in reopened.relation("codes")] == ["abcdef"]
        assert reopened.relation("codes").find("abcdef").n == 1
        assert len(reopened.index_for("codes", "n").probe_operator("=", 0)) == 0
        reopened.close()

    def test_commit_mode_logs_redo_records(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "x"})
        records, damage = scan_wal(wal_path(str(tmp_path)))
        assert damage is None
        assert [r["kind"] for r in records] == ["CHECKPOINT", "COMMIT"]
        assert records[1]["ops"] == [["t", "insert", [1, "x       "]]]
        database.close()

    def test_a_rollback_writes_nothing(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = make_relation(database)
        size = os.path.getsize(wal_path(str(tmp_path)))
        records = database.statistics.wal_records
        journal = database.begin_transaction()
        relation.insert({"k": 1, "label": "gone"})
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        assert database.statistics.wal_records == records
        assert os.path.getsize(wal_path(str(tmp_path))) == size
        database.close()

    def test_off_mode_keeps_no_log_and_loses_unclosed_work(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_OFF)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "volatile"})
        assert scan_wal(wal_path(str(tmp_path))) == ([], None)
        del database  # vanish without close: the commit was never forced
        reopened = Database.open(tmp_path, durability=DURABILITY_OFF)
        assert keys(reopened) == []
        reopened.close()

    def test_off_mode_persists_at_close(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_OFF)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "kept"})
        database.close()
        reopened = Database.open(tmp_path, durability=DURABILITY_OFF)
        assert keys(reopened) == [1]
        reopened.close()

    def test_checkpoint_mode_survives_a_process_crash(self, tmp_path):
        # flush-no-fsync on commit: the records reached the file (surviving
        # a *process* crash in this simulation), only the fsync is deferred.
        database = Database.open(tmp_path, durability=DURABILITY_CHECKPOINT)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 9, "label": "lazy"})
        del database
        reopened = Database.open(tmp_path, durability=DURABILITY_CHECKPOINT)
        assert keys(reopened) == [9]
        reopened.close()

    def test_mixed_mode_reopen_reads_the_same_files(self, tmp_path):
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 4, "label": "any"})
        database.close()
        reopened = Database.open(tmp_path, durability=DURABILITY_OFF)
        assert keys(reopened) == [4]
        reopened.close()


class TestCheckpoint:
    def test_checkpoint_truncates_the_log(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "a"})
        database.checkpoint()
        records, damage = scan_wal(wal_path(str(tmp_path)))
        assert damage is None
        assert [r["kind"] for r in records] == ["CHECKPOINT"]
        database.close()

    def test_checkpoint_refused_inside_a_transaction(self, tmp_path):
        database = Database.open(tmp_path)
        journal = database.begin_transaction()
        with pytest.raises(TransactionError):
            database.checkpoint()
        database.end_transaction(journal)
        database.close()

    def test_checkpoint_refused_on_in_memory_database(self):
        with pytest.raises(StorageError):
            Database("ephemeral").checkpoint()

    def test_lsns_keep_climbing_across_checkpoints(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "a"})
        database.checkpoint()
        with committed(database):
            relation.insert({"k": 2, "label": "b"})
        records, _ = scan_wal(wal_path(str(tmp_path)))
        lsns = [r["lsn"] for r in records]
        assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)
        database.close()


class TestClose:
    def test_close_is_idempotent_and_final(self, tmp_path):
        database = Database.open(tmp_path)
        database.close()
        database.close()
        assert database.closed
        with pytest.raises(StorageError):
            database.checkpoint()

    def test_close_refused_with_active_transaction(self, tmp_path):
        database = Database.open(tmp_path)
        journal = database.begin_transaction()
        with pytest.raises(TransactionError):
            database.close()
        database.end_transaction(journal)
        database.close()

    def test_in_memory_close_just_marks_closed(self):
        database = Database("ephemeral")
        database.close()
        assert database.closed


class TestCheckpointAfterRollback:
    def test_a_rolled_back_transaction_leaves_the_database_checkpointable(self, tmp_path):
        # A rollback writes no frame; the next checkpoint writes the
        # restored contents, and a reopen finds exactly them.
        database = Database.open(tmp_path, durability=DURABILITY_COMMIT)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "kept"})
        journal = database.begin_transaction()
        for k in range(2, 7):
            relation.insert({"k": k, "label": "gone"})
        relation.delete_key(1)
        database.abort_transaction(journal)
        database.end_transaction(journal)
        journal.rollback()
        wal_records = database.statistics.wal_records
        database.checkpoint()
        assert database.statistics.wal_records == wal_records + 1  # the CHECKPOINT marker only
        assert keys(database) == [1]
        database.close()
        reopened = Database.open(tmp_path)
        assert keys(reopened) == [1] and reopened.recovery_report.clean
        reopened.close()


class TestDDLCheckpoints:
    def test_ddl_outside_a_transaction_checkpoints_immediately(self, tmp_path):
        database = Database.open(tmp_path)
        before = database.statistics.checkpoints
        make_relation(database)
        assert database.statistics.checkpoints == before + 1
        database.create_index("t", "label")
        assert database.statistics.checkpoints == before + 2
        database.close()

    def test_ddl_inside_a_transaction_defers_the_checkpoint(self, tmp_path):
        database = Database.open(tmp_path)
        before = database.statistics.checkpoints
        with committed(database):
            make_relation(database)
            assert database.statistics.checkpoints == before  # deferred
        assert database.run_pending_checkpoint() is True
        assert database.statistics.checkpoints == before + 1
        assert database.run_pending_checkpoint() is False  # nothing pending now
        database.close()

    def test_session_runs_the_deferred_checkpoint_at_commit(self, tmp_path):
        connection = connect(str(tmp_path))
        database = connection.database
        before = database.statistics.checkpoints
        with connection.session():
            make_relation(database)
        assert database.statistics.checkpoints == before + 1
        connection.close()

    def test_in_memory_ddl_never_checkpoints(self):
        database = Database("ephemeral")
        make_relation(database)
        assert database.statistics.checkpoints == 0

    def test_drop_relation_is_durable(self, tmp_path):
        database = Database.open(tmp_path)
        make_relation(database)
        database.drop_relation("t")
        database.close()
        reopened = Database.open(tmp_path)
        assert "t" not in list(reopened.relation_names())
        reopened.close()


class TestConnectPath:
    def test_connect_opens_owns_and_closes_the_database(self, tmp_path):
        connection = connect(str(tmp_path), durability=DURABILITY_COMMIT)
        database = connection.database
        assert database.directory == str(tmp_path)
        assert connection.recovery_report is not None
        assert connection.recovery_report.clean
        make_relation(database)
        with connection.session():
            database.relation("t").insert({"k": 1, "label": "via-api"})
        connection.checkpoint()
        connection.close()
        assert database.closed

        with connect(str(tmp_path)) as reopened:
            rows = reopened.database.relation("t")
            assert [r.label.strip() for r in rows] == ["via-api"]

    def test_connect_accepts_a_pathlike(self, tmp_path):
        with connect(tmp_path / "db") as connection:
            assert connection.database.directory == str(tmp_path / "db")

    def test_object_connections_do_not_own_their_database(self):
        database = repro.build_university_database(scale=1)
        connection = connect(database)
        assert connection.recovery_report is None
        connection.close()
        assert not getattr(database, "closed", False)
        with pytest.raises(StorageError):
            connection_checkpoint = Database("m")
            connection_checkpoint.checkpoint()


class TestStatisticsCounters:
    def test_wal_and_checkpoint_counters_accumulate(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        stats = database.statistics
        before = stats.wal_records
        with committed(database):
            relation.insert({"k": 1, "label": "n"})
            relation.insert({"k": 2, "label": "m"})
        assert stats.wal_records == before + 1  # the one commit frame
        assert stats.wal_bytes > 0
        assert stats.wal_flushes >= 1
        assert stats.checkpoints >= 1
        snapshot = stats.as_dict()
        for counter in ("wal_records", "wal_bytes", "wal_flushes",
                        "checkpoints", "recovered_transactions"):
            assert counter in snapshot
        database.close()

    def test_frames_of_the_older_per_operation_layout_are_noted(self, tmp_path):
        database = Database.open(tmp_path)
        make_relation(database)
        database.close()
        path = wal_path(str(tmp_path))
        watermark = scan_wal(path)[0][-1]["lsn"]
        log = WriteAheadLog(path, next_lsn=watermark + 1)
        log.append("BEGIN", 7)
        log.append("INSERT", 7, rel="t", row=[1, "old     "])
        log.append("COMMIT", 7)
        log.close()
        reopened = Database.open(tmp_path)
        report = reopened.recovery_report
        assert not report.clean
        assert [note.split(":")[0] for note in report.notes] == [
            f"LSN {watermark + 1}", f"LSN {watermark + 2}", f"LSN {watermark + 3}",
        ]
        assert "BEGIN record" in report.notes[0]
        assert "INSERT record" in report.notes[1]
        assert "transaction 7 committed" in report.notes[2]
        assert "NOT replayed" in report.notes[2]
        assert report.records_replayed == 0 and keys(reopened) == []
        reopened.close()

    def test_recovered_transactions_counted_on_reopen(self, tmp_path):
        database = Database.open(tmp_path)
        relation = make_relation(database)
        with committed(database):
            relation.insert({"k": 1, "label": "a"})
        with committed(database):
            relation.insert({"k": 2, "label": "b"})
        del database  # abandoned: both commits live only in the WAL
        reopened = Database.open(tmp_path)
        assert reopened.statistics.recovered_transactions == 2
        assert reopened.recovery_report.records_replayed == 2
        reopened.close()
