"""CONCURRENCY — pinned readers beside a committing writer.

Every front-door read executes against a pinned copy-on-write snapshot and
takes no lock.  This file checks what that must never change: N reader
threads run a four-variable join query (Example 21) while one writer session
commits to a scratch relation the query never touches, and every reader
fetches the rows of the naive interpreter — pins change scheduling, never
results.  ``BENCH_SMOKE=1`` shrinks the scale and the thread counts.

Reader throughput beside a writer *on the relation being read* is the
end-to-end benchmark's ``readers_with_writer`` workload (``benchmarks/e2e``).

The query has a real collection phase, so the readers share the
whole-result memo across the writer's commits (the version token of the
relations it reads does not move).
"""

from __future__ import annotations

import os
import threading
import time

from repro import connect, execute_naive
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
#: Queries each reader thread executes and fully drains.
_QUERIES_PER_READER = 4 if _SMOKE else 25
#: Delay between writer commits: a spinning writer is a GIL hog; a paced one
#: still commits hundreds of times per second.
_WRITER_PAUSE_SECONDS = 0.001


def _make_database():
    database = build_university_database(scale=_SCALE)
    database.create_relation(
        "scratch", [("k", INTEGER), ("v", INTEGER)], key=["k"]
    )
    return database


def _naive_rows(database, query) -> list:
    return sorted(record.values for record in execute_naive(database, query))


def _run_mixed_workload(connection, readers: int, query) -> list:
    """``readers`` query threads + one committing writer; each thread's last rows."""
    errors: list[BaseException] = []
    results: list[list] = [None] * readers
    stop_writer = threading.Event()
    start = threading.Barrier(readers + 1)

    def reader(slot: int) -> None:
        try:
            start.wait()
            cursor = connection.cursor()
            for _ in range(_QUERIES_PER_READER):
                cursor.execute(query)
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
    for thread in threads:
        thread.join(timeout=600)
        assert not thread.is_alive(), f"{thread.name} did not finish"
    stop_writer.set()
    writer_thread.join(timeout=600)
    assert not writer_thread.is_alive(), "writer did not finish"
    assert not errors, errors
    return results


def test_pinned_readers_fetch_the_naive_rows_beside_a_writer():
    expected = _naive_rows(_make_database(), EXAMPLE_21_TEXT)
    assert expected, "the benchmark query must return rows"
    for readers in _THREAD_COUNTS:
        database = _make_database()
        connection = connect(database)
        for rows in _run_mixed_workload(connection, readers, EXAMPLE_21_TEXT):
            assert sorted(rows) == expected
        assert database._snapshots.active == 0
        connection.close()


def test_pinned_rows_match_the_naive_rows_across_queries():
    """Beyond the threaded query: a constant matrix and a Strategy 4 query."""
    database = _make_database()
    connection = connect(database)
    for query in (PROFESSORS_TEXT, TEACHES_LOW_LEVEL_TEXT):
        rows = [record.values for record in connection.execute(query).fetchall()]
        assert sorted(rows) == _naive_rows(database, query)
    connection.close()
