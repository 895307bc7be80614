"""Crash recovery: analysis, redo of committed transactions, loser discard.

``Database.open`` loads the checkpoint snapshot and then calls
:func:`recover` with the snapshot's LSN watermark.  Recovery makes two
passes over the salvageable prefix of the write-ahead log (the forward
scanner of :mod:`repro.storage.wal` already stopped at the first torn or
corrupted frame):

1. **Analysis** — classify every transaction seen in the log as committed
   (a ``COMMIT`` record survived), aborted (an ``ABORT`` record survived —
   the undo journal already set the touched keys back in memory, so the
   log's operation records must *not* be reapplied), or a **loser** (a
   ``BEGIN`` with no outcome record: the process died mid-transaction, or
   the commit's flush never reached the disk).
2. **Redo** — reapply, in LSN order, the operation records of committed
   transactions with LSN above the snapshot watermark.  Records at or below
   the watermark are already inside the snapshot (this is what makes a
   crash between the checkpoint's snapshot rename and its WAL truncation
   harmless — replay is never attempted twice).  Losers and aborted
   transactions are simply not replayed; because operations only become
   visible on disk through the log, discarding is free.

Redo runs through the relations' ordinary unjournaled mutation operators
(``insert_raw`` / ``delete_key`` / ``assign`` / ``clear``), which touch no
index: a permanent index is re-derived from the recovered contents the
first time it is asked for.  Afterwards every touched stored relation
is repacked so its heap pages and zone maps are byte-identical to a
database that absorbed the same commits through a checkpoint — the
crash-recovery test harness pins that equivalence.

Recovery *degrades gracefully*: an operation record that cannot be applied
(unknown relation, malformed payload) is skipped and surfaced in the
:class:`RecoveryReport` notes rather than aborting the open.  Only an
unusable snapshot — the one artifact with no redundancy — raises
:class:`~repro.errors.RecoveryError` (from the snapshot loader).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PascalRError
from repro.relational.database import Database
from repro.relational.record import Record
from repro.storage.serialize import decode_key, decode_row
from repro.storage.wal import WalDamage, scan_wal

__all__ = ["RecoveryReport", "recover"]

#: WAL record kinds that carry a redo payload (the rest are control records).
_DATA_KINDS = frozenset({"INSERT", "DELETE", "ASSIGN", "CLEAR"})


@dataclass
class RecoveryReport:
    """What crash recovery found and did, for callers and tests to inspect.

    Exposed as ``Connection.recovery_report`` after opening a database that
    had a non-empty log.
    """

    #: Intact records the forward scan produced (control + data).
    records_scanned: int = 0
    #: Highest intact LSN the scan saw (0 when the log was empty); the
    #: reopened log continues numbering strictly above it.
    last_lsn: int = 0
    #: Data records reapplied to the snapshot state.
    records_replayed: int = 0
    #: Data records deliberately not applied (already in the snapshot,
    #: belonging to a loser or aborted transaction, or unreplayable).
    records_skipped: int = 0
    #: Committed transactions that had at least one record replayed.
    replayed_transactions: list[int] = field(default_factory=list)
    #: Transactions with a BEGIN but no COMMIT/ABORT — discarded losers.
    dropped_transactions: list[int] = field(default_factory=list)
    #: Transactions the log shows as explicitly aborted.
    aborted_transactions: list[int] = field(default_factory=list)
    #: Names of the relations redo touched (repacked afterwards).
    relations_replayed: list[str] = field(default_factory=list)
    #: Where the log scan stopped early, if it did.
    damage: WalDamage | None = None
    #: Human-readable remarks about degraded handling.
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the log was intact and nothing needed degraded handling."""
        return self.damage is None and not self.notes

    def describe(self) -> str:
        lines = [
            f"scanned {self.records_scanned} record(s): "
            f"replayed {self.records_replayed}, skipped {self.records_skipped}",
            f"committed transactions replayed: {self.replayed_transactions or 'none'}",
        ]
        if self.dropped_transactions:
            lines.append(f"losers discarded: {self.dropped_transactions}")
        if self.aborted_transactions:
            lines.append(f"aborted transactions ignored: {self.aborted_transactions}")
        if self.damage is not None:
            lines.append(f"log damage: {self.damage.describe()}")
        lines.extend(self.notes)
        return "\n".join(lines)


def recover(database: Database, wal_file: str, snapshot_lsn: int) -> RecoveryReport:
    """Replay the committed suffix of ``wal_file`` into ``database``.

    ``database`` holds the snapshot state; ``snapshot_lsn`` is the highest
    LSN the snapshot already absorbed.  Returns the :class:`RecoveryReport`.
    """
    records, damage = scan_wal(wal_file)
    report = RecoveryReport(records_scanned=len(records), damage=damage)
    if records:
        report.last_lsn = records[-1]["lsn"]
    if damage is not None:
        report.notes.append(
            f"log scan stopped early: {damage.describe()}; "
            "records past the damage (if any) are unrecoverable"
        )

    # -- analysis: one pass to classify every transaction ------------------------
    committed: set[int] = set()
    begun: list[int] = []
    for record in records:
        kind = record.get("kind")
        txid = record.get("txid")
        if kind == "BEGIN" and txid is not None:
            begun.append(txid)
        elif kind == "COMMIT" and txid is not None:
            committed.add(txid)
        elif kind == "ABORT" and txid is not None:
            report.aborted_transactions.append(txid)
    aborted = set(report.aborted_transactions)
    report.dropped_transactions = [
        txid for txid in begun if txid not in committed and txid not in aborted
    ]
    for txid in report.dropped_transactions:
        report.notes.append(
            f"transaction {txid} has no COMMIT in the salvageable log; discarded"
        )

    # -- redo: reapply committed operations above the snapshot watermark ---------
    touched: dict[str, object] = {}
    replayed_txids: list[int] = []
    for record in records:
        kind = record.get("kind")
        if kind not in _DATA_KINDS:
            continue
        txid = record.get("txid")
        if record["lsn"] <= snapshot_lsn or txid not in committed:
            report.records_skipped += 1
            continue
        relation_name = record.get("rel")
        try:
            relation = database.relation(relation_name)
            schema = relation.schema
            if kind == "INSERT":
                relation.insert_raw(Record.raw(schema, decode_row(schema, record["row"])))
            elif kind == "DELETE":
                relation.delete_key(decode_key(schema, record["key"]))
            elif kind == "ASSIGN":
                relation.assign([decode_row(schema, row) for row in record["rows"]])
            else:  # CLEAR
                relation.clear()
        except (PascalRError, KeyError, TypeError, ValueError) as exc:
            report.records_skipped += 1
            report.notes.append(
                f"could not replay LSN {record['lsn']} "
                f"({kind} on {relation_name!r}): {exc}"
            )
            continue
        report.records_replayed += 1
        touched[relation_name] = relation
        if txid not in replayed_txids:
            replayed_txids.append(txid)

    # -- normalise: repack touched heaps so pages/zone maps match a clean load ---
    for relation in touched.values():
        repack = getattr(relation, "repack", None)
        if repack is not None:
            repack()
    report.relations_replayed = list(touched)
    report.replayed_transactions = replayed_txids
    if replayed_txids:
        database.statistics.record_recovered_transactions(len(replayed_txids))
    return report
