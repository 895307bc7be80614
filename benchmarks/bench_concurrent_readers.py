"""CONCURRENCY — aggregate reader throughput: snapshot reads vs the lock.

ISSUE 7 lets connection-level cursors execute against a pinned copy-on-write
snapshot, entirely outside the execution lock.  This benchmark prints what
that buys a mixed workload: N reader threads run a four-variable join query
(Example 21) while one writer session commits to a scratch relation the
query never touches.

What the table shows has changed with the engine, and the assertion with it.
When this file was written the serialized path discarded its collection memo
on every commit (a global ``data_version`` guard) and paid paged scans per
execution, so snapshot reads won ≥ 4x at 8 threads.  Since PR 19 both paths
validate one relation-granular version token, so both serve the warmed query
from the whole-result memo; what is left between them is the lock, and
threads that compute in Python share one interpreter lock whatever the
engine does.  On a 2-core host the ratio has read 0.97-1.04x at every commit
since PR 16 — there is no per-core restatement of a 4x claim that is true
here, so the wall-clock assertion is gone.  What stays pinned: snapshot
reads change scheduling, never results — every thread in every
configuration fetches byte-identical rows beside the committing writer —
and the harness itself (``BENCH_SMOKE=1`` collapses the sweep).  Reader
throughput beside a writer *on the relation being read* is the end-to-end
benchmark's ``readers_with_writer`` workload (``benchmarks/e2e``).

The serialized readers are session cursors outside any transaction: they
read the live database under the execution lock, which is the whole of what
differs from a connection cursor's pin.

The query must have a real collection phase for a memo to exist:
monadic restriction queries (e.g. the professors example) compile to the
constant-matrix shortcut, which bypasses collection entirely and re-scans
its range on both paths.
"""

from __future__ import annotations

import os
import threading
import time

from repro import connect
from repro.bench.report import print_report
from repro.types.scalar import INTEGER
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    PROFESSORS_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
)
from repro.workloads.university import build_university_database

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

_SCALE = 2 if _SMOKE else 16
_THREAD_COUNTS = (1, 2) if _SMOKE else (1, 2, 4, 8)
#: Queries each reader thread executes and fully drains per measurement.
_QUERIES_PER_READER = 4 if _SMOKE else 25
_QUERY = EXAMPLE_21_TEXT
#: Delay between writer commits.  A spinning writer is a GIL hog that
#: distorts what the sweep measures (reader throughput); a paced writer
#: still commits hundreds of times per second.
_WRITER_PAUSE_SECONDS = 0.001


def _make_database():
    database = build_university_database(scale=_SCALE)
    database.create_relation(
        "scratch", [("k", INTEGER), ("v", INTEGER)], key=["k"]
    )
    return database


def _reader_cursor(connection, pinned: bool):
    """A connection cursor (a pin) or a session cursor (the live path, locked)."""
    return (connection if pinned else connection.session()).cursor()


def _run_mixed_workload(connection, readers: int, pinned: bool) -> tuple[float, list]:
    """``readers`` query threads + one committing writer; seconds elapsed."""
    errors: list[BaseException] = []
    results: list[list] = [None] * readers
    stop_writer = threading.Event()
    start = threading.Barrier(readers + 2)

    def reader(slot: int) -> None:
        try:
            start.wait()
            cursor = _reader_cursor(connection, pinned)
            for _ in range(_QUERIES_PER_READER):
                cursor.execute(_QUERY)
                results[slot] = [record.values for record in cursor.fetchall()]
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)

    def writer() -> None:
        try:
            start.wait()
            scratch = connection.database.relation("scratch")
            session = connection.session()
            key = len(scratch)
            while not stop_writer.is_set():
                session.begin()
                scratch.insert({"k": key, "v": key})
                session.commit()
                key += 1
                time.sleep(_WRITER_PAUSE_SECONDS)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,), name=f"reader-{slot}")
        for slot in range(readers)
    ]
    writer_thread = threading.Thread(target=writer, name="writer")
    for thread in threads:
        thread.start()
    writer_thread.start()
    start.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
        assert not thread.is_alive(), f"{thread.name} did not finish"
    elapsed = time.perf_counter() - started
    stop_writer.set()
    writer_thread.join(timeout=600)
    assert not writer_thread.is_alive(), "writer did not finish"
    assert not errors, errors
    return elapsed, results


def _sweep(pinned: bool) -> dict[int, tuple[float, list]]:
    timings: dict[int, tuple[float, list]] = {}
    for readers in _THREAD_COUNTS:
        database = _make_database()
        connection = connect(database)
        elapsed, results = _run_mixed_workload(connection, readers, pinned)
        queries = readers * _QUERIES_PER_READER
        timings[readers] = (queries / elapsed, results)
        connection.close()
    return timings


def test_snapshot_readers_fetch_the_serialized_rows_beside_a_writer():
    serialized = _sweep(pinned=False)
    snapshot = _sweep(pinned=True)

    lines = [f"{_QUERIES_PER_READER} queries/reader + 1 committing writer, scale={_SCALE}:"]
    lines.append(f"  {'readers':>8} {'serialized':>12} {'snapshot':>12} {'speedup':>9}")
    for readers in _THREAD_COUNTS:
        locked, _ = serialized[readers]
        pinned, _ = snapshot[readers]
        lines.append(
            f"  {readers:>8} {locked:>10.1f}/s {pinned:>10.1f}/s {pinned / locked:>8.2f}x"
        )
    print_report("Concurrent reader throughput", "\n".join(lines))

    # Snapshot reads change scheduling, never results: every thread in every
    # configuration fetched byte-identical rows.
    expected = serialized[_THREAD_COUNTS[0]][1][0]
    assert expected, "the benchmark query must return rows"
    for timings in (serialized, snapshot):
        for readers in _THREAD_COUNTS:
            for rows in timings[readers][1]:
                assert rows == expected


def test_snapshot_matches_serialized_rows_across_queries():
    """Equivalence beyond the timed query: snapshot rows == serialized rows."""
    for query in (PROFESSORS_TEXT, TEACHES_LOW_LEVEL_TEXT):
        rows = {}
        for pinned in (False, True):
            connection = connect(_make_database())
            cursor = _reader_cursor(connection, pinned).execute(query)
            rows[pinned] = [record.values for record in cursor.fetchall()]
            connection.close()
        assert rows[True] == rows[False]
