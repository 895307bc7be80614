"""Crash recovery: one forward pass that redoes every committed transaction.

``Database.open`` loads the checkpoint snapshot and then calls
:func:`recover` with the snapshot's LSN watermark.  Recovery reads the
salvageable prefix of the write-ahead log (the forward scanner of
:mod:`repro.storage.wal` already stopped at the first torn or corrupted
frame) once, in LSN order.  A committed transaction is one ``COMMIT`` frame
carrying its redo ops, so at each intact commit frame above the snapshot
watermark recovery applies the frame's ops.  A commit frame at or below the
watermark is already inside the snapshot (this is what makes a crash
between the checkpoint's snapshot rename and its WAL truncation harmless —
replay is never attempted twice).  A transaction whose commit frame was
torn, or that died or rolled back before committing, left nothing in the
log: only a commit frame ever makes operations visible, so there are no
losers to discard and a rollback never needs a record of its own.

Redo runs through the relations' ordinary unjournaled mutation operators
(``insert_raw`` / ``delete_key`` / ``assign`` / ``clear``), which touch no
index: a permanent index is re-derived from the recovered contents the
first time it is asked for.  Afterwards every touched stored relation
is repacked so its heap pages and zone maps are byte-identical to a
database that absorbed the same commits through a checkpoint — the
crash-recovery test harness pins that equivalence.

Recovery *degrades gracefully*: an operation that cannot be applied
(unknown relation, malformed payload) and a frame of a kind it does not
replay (the per-operation records of an older log layout) are skipped and
surfaced in the :class:`RecoveryReport` notes rather than aborting the open.
Only an unusable snapshot — the one artifact with no redundancy — raises
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


@dataclass
class RecoveryReport:
    """What crash recovery found and did, for callers and tests to inspect.

    Exposed as ``Connection.recovery_report`` after opening a database that
    had a non-empty log.
    """

    #: Intact frames the forward scan produced.
    records_scanned: int = 0
    #: Highest intact LSN the scan saw (0 when the log was empty); the
    #: reopened log continues numbering strictly above it.
    last_lsn: int = 0
    #: Redo operations reapplied to the snapshot state.
    records_replayed: int = 0
    #: Redo operations deliberately not applied (already in the snapshot,
    #: or unreplayable).
    records_skipped: int = 0
    #: Committed transactions that had at least one operation replayed.
    replayed_transactions: list[int] = field(default_factory=list)
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
    touched: dict[str, object] = {}
    for record in records:
        kind, lsn, txid = record["kind"], record["lsn"], record.get("txid")
        ops = record.get("ops")
        if kind == "CHECKPOINT":
            continue
        if kind != "COMMIT" or ops is None:
            report.notes.append(
                f"LSN {lsn}: transaction {txid} committed in the older "
                "per-operation log layout; its operations were NOT replayed"
                if kind == "COMMIT"
                else f"LSN {lsn}: {kind} record of the older per-operation "
                "log layout, not replayed"
            )
            continue
        if lsn <= snapshot_lsn:
            report.records_skipped += len(ops)
            continue
        replayed = 0
        for op in ops:
            try:
                relation = _replay(database, op)
            except (PascalRError, KeyError, TypeError, ValueError) as exc:
                report.records_skipped += 1
                report.notes.append(
                    f"could not replay an operation of transaction {txid} "
                    f"(LSN {lsn}): {exc}"
                )
                continue
            replayed += 1
            touched[relation.name] = relation
        report.records_replayed += replayed
        if replayed:
            report.replayed_transactions.append(txid)

    # -- normalise: repack touched heaps so pages/zone maps match a clean load ---
    for relation in touched.values():
        repack = getattr(relation, "repack", None)
        if repack is not None:
            repack()
    report.relations_replayed = list(touched)
    if report.replayed_transactions:
        database.statistics.record_recovered_transactions(
            len(report.replayed_transactions)
        )
    return report


def _replay(database: Database, op):
    """Apply one redo op ``[relation, operator, argument]``; return the relation."""
    name, operator, argument = op
    relation = database.relation(name)
    schema = relation.schema
    if operator == "insert":
        relation.insert_raw(Record.raw(schema, decode_row(schema, argument)))
    elif operator == "delete":
        relation.delete_key(decode_key(schema, argument))
    elif operator == "assign":
        relation.assign([decode_row(schema, row) for row in argument])
    elif operator == "clear":
        relation.clear()
    else:
        raise ValueError(f"unknown operation {operator!r} on {name!r}")
    return relation
