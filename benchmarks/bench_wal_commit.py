"""DURABILITY — commit latency per durability mode, and recovery cost.

ISSUE 6 adds write-ahead logging to the paged backend; this benchmark
quantifies what each durability mode charges the commit path and what
crash recovery costs as the log grows:

* ``memory``     — the pre-WAL baseline: an in-memory database, journaled
                   transactions, no logging at all;
* ``off``        — disk-resident, ``durability='off'``: no WAL records,
                   durability only at checkpoint/close;
* ``checkpoint`` — the commit frame (the transaction's redo ops, one WAL
                   record) flushed (no fsync) on every commit;
* ``commit``     — the commit frame flushed *and* fsynced on every commit
                   (the durability point of a classic force-log-at-commit
                   system).

The acceptance assertion pins the regression claim of the issue: with
durability off, the disk-resident commit path stays within 10% of the
in-memory one — the WAL hooks must cost nothing when they are disabled.
Recovery timing replays logs of increasing length and reports seconds per
replayed record, demonstrating recovery is linear in log length.

ISSUE 17 adds the scale sweep: a five-row transaction — committed or rolled
back — must cost what it changes, not what its relations hold.  The same
insert-five/retire-five transaction runs against the bibliography at scale 8
and at scale 64; the median commit and the median rollback may grow by less
than 1.5x while the relations grow more than 6x.  (With relation-level
before-images the commit grew 2.4-3.5x and the rollback 9-15x over that range.)

Under ``BENCH_SMOKE=1`` the sweeps collapse and the wall-clock ratio
assertion is skipped (full-scale claims are pinned by manual runs).
"""

from __future__ import annotations

import os
import time
from collections import deque
from statistics import median

import pytest

from repro.bench.report import print_report
from repro.config import (
    DURABILITY_CHECKPOINT,
    DURABILITY_COMMIT,
    DURABILITY_OFF,
)
from repro.relational.database import Database
from repro.types.scalar import INTEGER, CharArray
from repro.workloads.bibliography.generator import build_bibliography_database
from repro.workloads.bibliography.schema import (
    BIBLIOGRAPHY_RELATIONS,
    create_standard_indexes,
    declare_schema,
)

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Committed transactions per measurement run.
_TRANSACTIONS = 40 if _SMOKE else 300
#: Inserts per transaction.
_ROWS = 5


def _make_relation(database):
    return database.create_relation(
        "ledger",
        [("k", INTEGER), ("note", CharArray(12, "notetype"))],
        key=["k"],
        page_capacity=8,
    )


def _run_commits(database, transactions: int = _TRANSACTIONS) -> float:
    """Time ``transactions`` committed transactions; return seconds elapsed."""
    relation = database.relation("ledger")
    next_key = len(relation)
    started = time.perf_counter()
    for _ in range(transactions):
        journal = database.begin_transaction()
        for _ in range(_ROWS):
            relation.insert({"k": next_key, "note": f"tx{next_key}"})
            next_key += 1
        database.commit_transaction(journal)
        database.end_transaction(journal)
    return time.perf_counter() - started


def _measure(tmp_path) -> dict[str, float]:
    timings: dict[str, float] = {}
    memory = Database("ledgerdb")
    _make_relation(memory)
    timings["memory"] = _run_commits(memory)
    for mode in (DURABILITY_OFF, DURABILITY_CHECKPOINT, DURABILITY_COMMIT):
        database = Database.open(tmp_path / f"db-{mode}", durability=mode)
        _make_relation(database)
        timings[mode] = _run_commits(database)
        database.close()
    return timings


def test_commit_latency_per_durability_mode(tmp_path):
    timings = _measure(tmp_path)
    lines = [f"{_TRANSACTIONS} transactions x {_ROWS} inserts, commits/sec:"]
    for mode, elapsed in timings.items():
        lines.append(f"  {mode:<12} {_TRANSACTIONS / elapsed:>10.0f}/s"
                     f"  ({elapsed * 1e3 / _TRANSACTIONS:.3f} ms/commit)")
    print_report("WAL commit latency", "\n".join(lines))
    # Sanity whatever the machine: every mode completed and commits worked.
    assert all(elapsed > 0 for elapsed in timings.values())


def test_durability_off_matches_in_memory_commit_path(tmp_path):
    """The acceptance claim: durability='off' within 10% of the pre-WAL path.

    Wall-clock ratios on loaded runners are noisy, so the claim passes if
    any of three attempts lands inside the bound (local runs show 0-4%
    overhead; three consecutive misses indicate a real regression).
    """
    if _SMOKE:
        pytest.skip("wall-clock ratio assertion is a full-run claim, not a smoke check")
    ratios = []
    for attempt in range(3):
        memory = Database("ledgerdb")
        _make_relation(memory)
        baseline = _run_commits(memory)
        database = Database.open(
            tmp_path / f"attempt{attempt}", durability=DURABILITY_OFF
        )
        _make_relation(database)
        elapsed = _run_commits(database)
        database.close()
        ratios.append(elapsed / baseline)
        if ratios[-1] <= 1.10:
            return
    pytest.fail(f"durability='off' overhead above 10% in all attempts: {ratios}")


def test_recovery_time_scales_with_log_length(tmp_path):
    lengths = (10, 40) if _SMOKE else (50, 200, 800)
    lines = ["replayed records -> recovery wall-clock:"]
    for transactions in lengths:
        directory = tmp_path / f"recover-{transactions}"
        database = Database.open(directory, durability=DURABILITY_COMMIT)
        relation = _make_relation(database)
        for k in range(transactions):
            journal = database.begin_transaction()
            relation.insert({"k": k, "note": f"tx{k}"})
            database.commit_transaction(journal)
            database.end_transaction(journal)
        # Abandon without close/checkpoint: reopen must replay every commit.
        del database
        started = time.perf_counter()
        reopened = Database.open(directory)
        elapsed = time.perf_counter() - started
        report = reopened.recovery_report
        assert len(report.replayed_transactions) == transactions
        lines.append(
            f"  {report.records_replayed:>5} records  {elapsed * 1e3:>8.1f} ms"
            f"  ({elapsed * 1e6 / max(1, report.records_replayed):.0f} us/record)"
        )
        reopened.close()
    print_report("Crash recovery scaling", "\n".join(lines))


# -- the scale sweep: a transaction costs what it changes ---------------------------

#: Transactions alive at once (the retired one is deleted by the newest).
_WINDOW = 20
#: Timed transactions per scale; every fourth one rolls back.
_SWEEP_TRANSACTIONS = 40 if _SMOKE else 240


def _open_bibliography(directory, scale: int) -> Database:
    """The bibliography at ``scale`` in a disk-resident database, indexed."""
    source = build_bibliography_database(scale=scale)
    database = Database.open(directory, durability=DURABILITY_CHECKPOINT)
    declare_schema(database)
    create_standard_indexes(database)  # on empty relations: each DDL checkpoints
    for name in BIBLIOGRAPHY_RELATIONS:
        target = database.relation(name)
        for record in source.relation(name):
            target.insert(record.as_dict())
    database.checkpoint()
    return database


def _transaction_medians(database) -> tuple[float, float]:
    """Median seconds of a committed and of a rolled-back five-row transaction."""
    papers = database.relation("papers")
    authorship = database.relation("authorship")
    citations = database.relation("citations")
    # Two authors and two cited papers per transaction, as durable_writes
    # draws them; taken from the unpopular end, because a hash index removes
    # an entry in time linear in its bucket and the generator's Zipf heads
    # grow with the scale — that is the index's cost, not the transaction's.
    anrs = [record.anr for record in database.relation("authors")][-2:]
    cited = [record.pnr for record in papers][-2:]
    vnr = [record.vnr for record in database.relation("venues")][-1]
    live: deque = deque()
    committed, rolled_back = [], []
    for number in range(_WINDOW + _SWEEP_TRANSACTIONS):
        pnr = 1_000_000 + number
        rollback = number >= _WINDOW and number % 4 == 3
        started = time.perf_counter()
        journal = database.begin_transaction()
        papers.insert({"pnr": pnr, "ptitle": f"Bench {pnr}", "pyear": 2000,
                       "pvnr": vnr, "pkey": f"bench/{pnr}"})
        for anr in anrs:
            authorship.insert({"wanr": anr, "wpnr": pnr})
        for dst in cited:
            citations.insert({"csrc": pnr, "cdst": dst})
        if len(live) >= _WINDOW:
            retired = live[0]
            for dst in cited:
                assert citations.delete_key((retired, dst))
            for anr in anrs:
                assert authorship.delete_key((anr, retired))
            assert papers.delete_key(retired)
        if rollback:
            database.abort_transaction(journal)
            database.end_transaction(journal)
            journal.rollback()
        else:
            database.commit_transaction(journal)
            database.end_transaction(journal)
            live.append(pnr)
            if len(live) > _WINDOW:
                live.popleft()
        elapsed = time.perf_counter() - started
        if number >= _WINDOW:
            (rolled_back if rollback else committed).append(elapsed)
    return median(committed), median(rolled_back)


def test_commit_and_rollback_do_not_grow_with_the_relations(tmp_path):
    scales = (1, 2) if _SMOKE else (8, 64)
    attempts = []
    for attempt in range(1 if _SMOKE else 3):
        sizes, commits, rollbacks = [], [], []
        for scale in scales:
            database = _open_bibliography(tmp_path / f"sweep{attempt}-{scale}", scale)
            sizes.append(sum(len(database.relation(name)) for name in
                             ("papers", "authorship", "citations")))
            commit_s, rollback_s = _transaction_medians(database)
            commits.append(commit_s)
            rollbacks.append(rollback_s)
            database.close()
        lines = ["bibliography scale -> rows in the written relations, median ms:"]
        for scale, size, commit_s, rollback_s in zip(scales, sizes, commits, rollbacks):
            lines.append(f"  scale {scale:>3}  {size:>7} rows  commit {commit_s * 1e3:7.3f}"
                         f"  rollback {rollback_s * 1e3:7.3f}")
        print_report("Transaction cost vs relation size", "\n".join(lines))
        if _SMOKE:
            return  # wall-clock ratios are a full-run claim, not a smoke check
        assert sizes[-1] > 6 * sizes[0]
        attempts.append((commits[-1] / commits[0], rollbacks[-1] / rollbacks[0]))
        if max(attempts[-1]) < 1.5:
            return
    pytest.fail(
        "commit/rollback medians grew >= 1.5x from scale 8 to 64 in all "
        f"attempts (commit ratio, rollback ratio): {attempts}"
    )
