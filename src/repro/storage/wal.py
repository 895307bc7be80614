"""The write-ahead log: length+CRC-framed records with monotone LSNs.

The log is an append-only file of framed records.  Each frame is

.. code-block:: text

    [payload length : u32 LE][crc32(payload) : u32 LE][payload : JSON utf-8]

and each payload carries a monotonically increasing log sequence number
(LSN), a record kind and its fields.  A committed transaction is one
``COMMIT`` frame, ``{"lsn", "kind", "txid", "ops": [[rel, op, row | key |
rows | null], ...]}``, holding its redo ops in order.  A checkpoint starts
the truncated log with a ``CHECKPOINT`` marker.  Nothing else is written: a
rollback logs nothing.

Appends buffer in memory; :meth:`WriteAheadLog.flush` writes every buffered
frame with a single file write and optionally fsyncs.  The *durability
point* of a transaction is the flush that makes its ``COMMIT`` frame
durable.  Data reaches disk only in a checkpoint's snapshot, and a
checkpoint flushes and fsyncs the log before it writes one, so no data is
ever on disk before the log describes it (the write-ahead rule).

:func:`scan_wal` is the forward scanner used by recovery: it yields decoded
records in LSN order and stops *cleanly* at the first damaged frame — a torn
tail from a mid-write crash, a truncated record, a checksum mismatch, or a
non-monotone LSN — returning a :class:`WalDamage` describing what was lost
instead of refusing to read the log.

:class:`CrashPoint` is the fault-injection hook of the crash-recovery test
harness: armed with a write index *k*, it raises :class:`SimulatedCrash` at
the k-th storage write event (WAL flush, snapshot write/rename, WAL
truncation) and at every event after it, modelling a process that died
mid-write and can no longer reach its disk.  In ``torn`` mode the crashing
flush first writes a prefix of its frame bytes, manufacturing exactly the
torn tails the scanner must survive.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import StorageError
from repro.relational.statistics import AccessStatistics
from repro.storage.serialize import encode_value

__all__ = [
    "CrashPoint",
    "SimulatedCrash",
    "WAL_KINDS",
    "WalDamage",
    "WriteAheadLog",
    "scan_wal",
]

#: The record kinds the log accepts.  The database writes the first two.
#: The per-operation kinds of the older layout are still accepted: the
#: ``benchmarks/e2e`` WAL probe appends them, and a log written in that
#: layout scans to its end, so recovery can note each such frame.
WAL_KINDS = (
    "COMMIT",
    "CHECKPOINT",
    "BEGIN",
    "INSERT",
    "DELETE",
    "ASSIGN",
    "CLEAR",
    "ABORT",
)

#: Frame header: payload length, crc32 of the payload (both u32 little-endian).
_HEADER = struct.Struct("<II")

#: Buffered bytes beyond which an append triggers an automatic (non-fsync) flush.
_AUTO_FLUSH_BYTES = 256 * 1024


class SimulatedCrash(BaseException):
    """The simulated process death raised by a fired :class:`CrashPoint`.

    Derives from :class:`BaseException` so ordinary ``except Exception``
    cleanup handlers cannot absorb it — after a crash nothing runs, and the
    test harness must see the crash escape whatever storage call was in
    flight.
    """


class CrashPoint:
    """Raise :class:`SimulatedCrash` at the k-th storage write event.

    Parameters
    ----------
    crash_at:
        Zero-based index of the write event to die on.  ``None`` never
        crashes — the hook then only counts events, which is how the sweep
        harness sizes its crash-index range.
    torn:
        When the crash event is a WAL flush, write a prefix of the pending
        frame bytes before dying, leaving a torn tail for the forward
        scanner to detect.  Other event kinds ignore the flag (their
        atomicity comes from write-to-temp + rename).

    A fired crash point is *sticky*: every storage write after the crash
    raises too, modelling a dead process whose disk is unreachable.
    """

    def __init__(self, crash_at: int | None = None, torn: bool = False) -> None:
        self.crash_at = crash_at
        self.torn = torn
        self.fired = False
        #: Description of every event seen, in order (for sweep introspection).
        self.events: list[str] = []

    @property
    def count(self) -> int:
        """Number of write events observed so far."""
        return len(self.events)

    def arm(self, description: str, tearable: bool = False) -> bool:
        """Register one write event; crash if this is the chosen one.

        Returns ``True`` when this event is the crash event, torn mode is
        on, *and* the caller declared the event ``tearable`` — the caller
        then writes its torn prefix and calls :meth:`fire` itself.  Clean
        crashes, torn crashes aimed at non-tearable events (their atomicity
        comes from write-to-temp + rename, so there is no prefix to tear),
        and every event after a crash raise :class:`SimulatedCrash` directly.
        """
        if self.fired:
            raise SimulatedCrash(
                f"storage unreachable after simulated crash ({description})"
            )
        index = len(self.events)
        self.events.append(description)
        if self.crash_at is not None and index == self.crash_at:
            if self.torn and tearable:
                return True
            self.fire(description)
        return False

    def fire(self, description: str) -> None:
        """Mark the crash as having happened and raise :class:`SimulatedCrash`."""
        self.fired = True
        raise SimulatedCrash(
            f"simulated crash at write event #{len(self.events) - 1}: {description}"
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        state = "fired" if self.fired else f"armed at {self.crash_at}"
        return f"CrashPoint({state}, torn={self.torn}, events={len(self.events)})"


@dataclass(frozen=True)
class WalDamage:
    """Where and why a forward scan stopped before the end of the log."""

    #: LSN of the last intact record before the damage (0 = none).
    last_good_lsn: int
    #: Byte offset of the first damaged frame.
    offset: int
    #: Human readable reason (torn tail, checksum mismatch, ...).
    reason: str

    def describe(self) -> str:
        return f"{self.reason} at byte {self.offset} (last good LSN {self.last_good_lsn})"


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only framed log with buffered group-commit writes.

    Parameters
    ----------
    path:
        The log file; created when missing, appended to otherwise.
    next_lsn:
        First LSN to hand out.  LSNs stay monotone across checkpoint
        truncations (the snapshot persists the counter), so ``record LSN <=
        snapshot LSN`` is always the "already applied" test.
    statistics:
        Optional tracker charged with ``wal_records`` / ``wal_bytes`` /
        ``wal_flushes``.
    crash_point:
        Optional fault-injection hook consulted on every flush.
    """

    def __init__(
        self,
        path: str,
        next_lsn: int = 1,
        statistics: AccessStatistics | None = None,
        crash_point: CrashPoint | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.statistics = statistics
        self.crash_point = crash_point
        self._file = open(self.path, "ab")
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._next_lsn = next_lsn
        #: Highest LSN written to the OS (survives a process crash).
        self.flushed_lsn = next_lsn - 1
        #: Highest LSN fsynced to stable storage (survives a power crash).
        self.durable_lsn = next_lsn - 1
        self._closed = False

    # -- appending ---------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    def append(self, kind: str, txid: int | None = None, **fields: Any) -> int:
        """Buffer one record and return its LSN.

        The record reaches the OS at the next :meth:`flush` (or the
        automatic flush once the buffer exceeds its threshold); until then a
        crash loses it entirely — which is correct, because the write-ahead
        rule only requires the record to be durable before the snapshot
        holding its data is written, and a checkpoint fsyncs the log first.
        """
        if self._closed:
            raise StorageError(f"write-ahead log {self.path!r} is closed")
        if kind not in WAL_KINDS:
            raise StorageError(f"unknown WAL record kind {kind!r}")
        lsn = self._next_lsn
        payload_fields: dict[str, Any] = {"lsn": lsn, "kind": kind}
        if txid is not None:
            payload_fields["txid"] = txid
        payload_fields.update(fields)
        payload = json.dumps(
            payload_fields, separators=(",", ":"), default=encode_value
        ).encode("utf-8")
        frame = _frame(payload)
        self._pending.append(frame)
        self._pending_bytes += len(frame)
        self._next_lsn = lsn + 1
        if self.statistics is not None:
            self.statistics.record_wal_append(len(frame))
        if self._pending_bytes >= _AUTO_FLUSH_BYTES:
            self.flush(fsync=False)
        return lsn

    def flush(self, fsync: bool = False) -> None:
        """Write every buffered frame with one file write; optionally fsync.

        A commit appends its one frame and flushes it.  With ``fsync``
        the flush is a durability point (``durability='commit'``); without,
        the records survive a process crash but not a power loss
        (``durability='checkpoint'``).
        """
        if self._closed:
            raise StorageError(f"write-ahead log {self.path!r} is closed")
        data = b"".join(self._pending)
        crash_point = self.crash_point
        if crash_point is not None and crash_point.arm(
            f"wal-flush {len(data)}B", tearable=True
        ):
            # Torn-tail crash: a prefix of the frames reaches the file, the
            # rest (including any COMMIT at the end) is lost mid-write.
            if data:
                self._file.write(data[: max(1, len(data) // 2)])
                self._file.flush()
            crash_point.fire("wal-flush (torn)")
        if data:
            self._file.write(data)
            self._file.flush()
        self._pending.clear()
        self._pending_bytes = 0
        self.flushed_lsn = self._next_lsn - 1
        if fsync:
            os.fsync(self._file.fileno())
            self.durable_lsn = self.flushed_lsn
        if self.statistics is not None:
            self.statistics.record_wal_flush()

    # -- checkpoint support --------------------------------------------------------

    def truncate(self) -> None:
        """Drop every frame (the checkpoint absorbed them into the snapshot).

        The LSN counter keeps running — monotone LSNs across truncations are
        what lets recovery skip records the snapshot already includes.
        """
        if self._pending:
            raise StorageError("cannot truncate the WAL with unflushed records")
        if self.crash_point is not None:
            self.crash_point.arm("wal-truncate")
        self._file.close()
        self._file = open(self.path, "wb")
        self.flushed_lsn = self._next_lsn - 1
        self.durable_lsn = self._next_lsn - 1

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush pending records and close the file; double close is a no-op."""
        if self._closed:
            return
        self.flush(fsync=True)
        self._closed = True
        self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"WriteAheadLog({self.path!r}, next_lsn={self._next_lsn}, "
            f"flushed={self.flushed_lsn}, durable={self.durable_lsn})"
        )


def scan_wal(path: str) -> tuple[list[dict], WalDamage | None]:
    """Read every intact record of the log, stopping cleanly at damage.

    Returns the decoded payload dictionaries in file order plus a
    :class:`WalDamage` describing the first torn / truncated / corrupted
    frame (``None`` when the log is intact to the end).  Everything after
    the first damaged frame is deliberately not read: with no trustworthy
    framing boundary past the damage, later bytes cannot be attributed to
    records — the salvageable prefix is exactly what the scanner returns.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], None
    records: list[dict] = []
    offset = 0
    last_lsn = 0

    def damage(reason: str) -> tuple[list[dict], WalDamage]:
        return records, WalDamage(last_good_lsn=last_lsn, offset=offset, reason=reason)

    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return damage("torn frame header")
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if start + length > len(data):
            return damage("truncated record payload")
        payload = data[start : start + length]
        if zlib.crc32(payload) != checksum:
            return damage("checksum mismatch")
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return damage("undecodable record payload")
        if not isinstance(record, dict) or not isinstance(record.get("lsn"), int):
            return damage("record without an LSN")
        if record["lsn"] <= last_lsn:
            return damage(
                f"non-monotone LSN {record['lsn']} after {last_lsn}"
            )
        if record.get("kind") not in WAL_KINDS:
            return damage(f"unknown record kind {record.get('kind')!r}")
        records.append(record)
        last_lsn = record["lsn"]
        offset = start + length
    return records, None
