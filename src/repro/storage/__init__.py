"""The durability subsystem: write-ahead log, checkpoint snapshots and crash
recovery.  Relations live in memory as their element dicts; a snapshot plus
the log is what reaches disk."""

from repro.storage.recovery import RecoveryReport, recover
from repro.storage.snapshot import (
    SNAPSHOT_NAME,
    WAL_NAME,
    load_snapshot,
    write_snapshot,
)
from repro.storage.wal import (
    CrashPoint,
    SimulatedCrash,
    WalDamage,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "CrashPoint",
    "RecoveryReport",
    "SNAPSHOT_NAME",
    "SimulatedCrash",
    "WAL_NAME",
    "WalDamage",
    "WriteAheadLog",
    "load_snapshot",
    "recover",
    "scan_wal",
    "write_snapshot",
]
