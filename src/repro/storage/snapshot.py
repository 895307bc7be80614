"""Checkpoint snapshots: the disk-resident form of a database.

The paged backend simulates pages and heap files in memory; what actually
lives on disk is a *snapshot* — one JSON document holding the full catalog
(schemas, key components, page capacities, permanent index definitions) and
every relation's elements — plus the write-ahead log of changes since the
snapshot was taken.  A checkpoint forces the in-memory dirty pages by
rewriting the snapshot, then truncates the log; recovery loads the snapshot
and replays the log's committed suffix.

The snapshot write is atomic: the new document is written to a temporary
file, fsynced, and renamed over the old snapshot with :func:`os.replace`.  A
crash before the rename leaves the old snapshot intact (the WAL still covers
the difference); a crash after the rename but before the WAL truncation is
harmless because the snapshot records the last LSN it absorbed and recovery
skips records at or below it.

Element rows are persisted with the type-directed codecs of
:mod:`repro.storage.serialize`, so loading a snapshot runs every value
through the declared field types' validation — a corrupted snapshot fails
loudly with :class:`~repro.errors.RecoveryError` instead of resurrecting
ill-typed records.
"""

from __future__ import annotations

import json
import os

from repro.errors import RecoveryError
from repro.relational.database import Database
from repro.relational.index import SortedIndex
from repro.storage.serialize import decode_row, decode_schema, encode_row, encode_schema
from repro.storage.wal import CrashPoint

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "load_snapshot",
    "snapshot_path",
    "wal_path",
    "write_snapshot",
]

SNAPSHOT_FORMAT = 1
SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.log"


def snapshot_path(directory: str) -> str:
    return os.path.join(directory, SNAPSHOT_NAME)


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_NAME)


def _encode_database(database: Database, last_lsn: int, next_txid: int) -> dict:
    relations = []
    for relation in database.relations():
        heap = getattr(relation, "_heap", None)
        relations.append(
            {
                "schema": encode_schema(relation.schema),
                "page_capacity": heap.page_capacity if heap is not None else None,
                "rows": [encode_row(record.values) for record in relation.elements()],
            }
        )
    indexes = [
        {
            "relation": relation_name,
            "field": field_name,
            # The organisation is what the catalog keeps of the requested
            # operator: sorted indexes answer range probes, hash indexes
            # (in)equality.  Read off the catalog entry, never derived.
            "operator": "<=" if isinstance(index, SortedIndex) else "=",
        }
        for (relation_name, field_name), index in database._indexes.items()
    ]
    return {
        "format": SNAPSHOT_FORMAT,
        "name": database.name,
        "last_lsn": last_lsn,
        "next_txid": next_txid,
        "relations": relations,
        "indexes": indexes,
    }


def write_snapshot(
    database: Database,
    directory: str,
    last_lsn: int,
    next_txid: int,
    crash_point: CrashPoint | None = None,
) -> None:
    """Atomically persist ``database`` to ``directory``'s snapshot file.

    ``last_lsn`` is the highest WAL LSN whose effects the snapshot includes;
    recovery uses it to skip already-absorbed records.  The write is
    tmp-file + fsync + rename, with crash-point events before the write and
    before the rename (the two places a real checkpoint can die).
    """
    payload = json.dumps(
        _encode_database(database, last_lsn, next_txid), separators=(",", ":")
    ).encode("utf-8")
    target = snapshot_path(directory)
    tmp = target + ".tmp"
    torn_write = crash_point is not None and crash_point.arm(
        "snapshot-write", tearable=True
    )
    with open(tmp, "wb") as handle:
        if torn_write:
            # A torn temporary file is harmless — it is never renamed into
            # place — but writing the prefix keeps the fault model honest.
            handle.write(payload[: max(1, len(payload) // 2)])
            handle.flush()
            crash_point.fire("snapshot-write (torn)")
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    if crash_point is not None:
        crash_point.arm("snapshot-rename")
    os.replace(tmp, target)
    # Make the rename itself durable before the caller truncates the WAL.
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def load_snapshot(database: Database, directory: str) -> tuple[int, int]:
    """Populate ``database`` from ``directory``'s snapshot, if one exists.

    Returns ``(last_lsn, next_txid)`` — the LSN watermark recovery must skip
    to and the transaction-id counter to resume from.  A missing snapshot is
    a brand-new database: ``(0, 1)``.  A snapshot that cannot be parsed or
    fails type validation raises :class:`~repro.errors.RecoveryError`; the
    write path is atomic, so a damaged snapshot means external corruption,
    not a crash, and silently starting empty would discard committed data.
    """
    path = snapshot_path(directory)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return 0, 1
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"snapshot {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"snapshot {path!r} has unsupported format "
            f"{document.get('format') if isinstance(document, dict) else document!r}"
        )
    try:
        database.name = document["name"]
        for entry in document["relations"]:
            schema = decode_schema(entry["schema"])
            rows = [decode_row(schema, row) for row in entry["rows"]]
            kwargs = {}
            if entry.get("page_capacity") is not None:
                kwargs["page_capacity"] = entry["page_capacity"]
            database.create_relation(
                schema.name, schema.fields, key=schema.key, elements=rows, **kwargs
            )
        for entry in document["indexes"]:
            database.create_index(
                entry["relation"], entry["field"], entry.get("operator", "=")
            )
        last_lsn = int(document["last_lsn"])
        next_txid = int(document.get("next_txid", 1))
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(f"snapshot {path!r} is structurally invalid: {exc}") from exc
    return last_lsn, next_txid
