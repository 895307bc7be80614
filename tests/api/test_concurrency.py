"""Satellite: N threads, one connection — results identical to serial execution.

A shared :class:`Connection` serializes compilation and every pipeline step
on one reentrant execution lock, so concurrent cursors (including open,
half-drained streaming cursors) plus a writer session must neither corrupt
each other's result sets nor the shared access counters.  Each reader
thread's fetched rows are compared byte-for-byte against the serial
baseline; the writer hammers begin/insert/rollback (and some commits) on a
scratch relation the queries never touch.

Connection cursors read pins *without* that lock and share memoized
collection results — and with them the combination plan published on one,
its reduced operands and the hash tables wires build on those: the last two
tests race first executions over one cold shape, and over one collection
result handed to eight phases at once.
"""

from __future__ import annotations

import sys
import threading

from repro import QueryEngine, connect
from repro.engine.collection import CollectionPhase
from repro.engine.combination import CombinationPhase
from repro.types.scalar import INTEGER
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT, COCITATION_TEXT
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    OTHERS_PUBLISHED_1977_TEXT,
    PROFESSORS_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
)
from repro.workloads.university import build_university_database

_QUERIES = (
    EXAMPLE_21_TEXT,
    PROFESSORS_TEXT,
    OTHERS_PUBLISHED_1977_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
)

_READERS = 4
_ROUNDS = 6
_WRITER_ROUNDS = 24


def test_thread_hammer_matches_serial_execution():
    database = build_university_database(scale=2)
    scratch = database.create_relation(
        "scratch", [("k", INTEGER), ("v", INTEGER)], key=["k"]
    )
    connection = connect(database)

    # Serial baseline, one query at a time on an otherwise idle connection.
    baseline = {
        query: [record.values for record in connection.execute(query).fetchall()]
        for query in _QUERIES
    }

    errors: list[BaseException] = []
    mismatches: list[tuple] = []
    start = threading.Barrier(_READERS + 2)

    def reader(thread_id: int) -> None:
        try:
            start.wait()
            cursor = connection.cursor()
            for round_number in range(_ROUNDS):
                query = _QUERIES[(thread_id + round_number) % len(_QUERIES)]
                cursor.execute(query)
                rows: list = []
                # Mixed fetch styles: a couple of single-row pulls keep the
                # pipeline open across other threads' executions, then a
                # batched drain.
                for _ in range(2):
                    record = cursor.fetchone()
                    if record is not None:
                        rows.append(record.values)
                rows.extend(
                    record.values for record in cursor.fetchmany(3)
                )
                rows.extend(record.values for record in cursor.fetchall())
                if rows != baseline[query]:
                    mismatches.append((thread_id, round_number, query))
        except BaseException as exc:  # noqa: BLE001 - surfaced to the assert
            errors.append(exc)

    def writer() -> None:
        try:
            start.wait()
            session = connection.session()
            for i in range(_WRITER_ROUNDS):
                session.begin()
                scratch.insert({"k": i, "v": i * i})
                if i % 3 == 0:
                    session.commit()
                else:
                    session.rollback()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(thread_id,), name=f"reader-{thread_id}")
        for thread_id in range(_READERS)
    ]
    threads.append(threading.Thread(target=writer, name="writer"))
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{thread.name} did not finish"

    assert not errors, errors
    assert not mismatches, mismatches

    # The writer's commits (every third round) landed; the rollbacks did not.
    committed = sorted(record["k"] for record in scratch.elements())
    assert committed == [i for i in range(_WRITER_ROUNDS) if i % 3 == 0]

    # No counter corruption: every shared scalar counter is a non-negative
    # int, and the mutation epoch kept advancing monotonically.
    snapshot = database.statistics.as_dict()
    for name, value in snapshot.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            assert value >= 0, (name, value)
    assert database.statistics.mutation_epoch > 0
    assert not database.in_transaction
    connection.close()


def _race(worker, count: int = 8) -> list:
    """``worker(i)`` on ``count`` threads released together; their results."""
    start = threading.Barrier(count)
    results: list = [None] * count
    errors: list[BaseException] = []

    def body(i: int) -> None:
        try:
            start.wait(timeout=60)
            results[i] = worker(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the assert
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching mid-build
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), f"{thread.name} did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    return results


def test_eight_cursors_on_one_cold_shape_all_return_the_oracles_rows():
    database = build_bibliography_database(scale=2)
    oracle = [record.values for record in QueryEngine(database).run(COAUTHOR_PAIRS_TEXT).rows]
    assert len(oracle) > 20
    connection = connect(database)

    def reader(_: int) -> list:
        cursor = connection.cursor()  # pinned: no execution lock
        rounds = []
        for _ in range(3):  # cold, then over whichever collection result the memo kept
            rows = [record.values for record in cursor.execute(COAUTHOR_PAIRS_TEXT).fetchall()]
            rounds.append((rows, cursor.result.combination.plan_reused))
        return rounds

    results = _race(reader)
    assert all(rows == oracle for rounds in results for rows, _ in rounds)
    assert all(rounds[-1][1] for rounds in results), "a warmed shape planned again"
    assert database._snapshots.active == 0
    connection.close()


def test_racing_first_executions_over_one_collection_result_publish_equal_plans():
    database = build_bibliography_database(scale=2)
    plan = QueryEngine(database).prepare(COCITATION_TEXT)
    expected = CombinationPhase(
        plan, database, CollectionPhase(plan, database, plan.options).run()
    ).run()
    oracle = list(expected.stream)
    assert oracle and expected.join_orders
    shared = CollectionPhase(plan, database, plan.options).run()
    assert shared.combination_plan is None  # nobody planned yet: all eight may

    def phase(_: int) -> tuple:
        pin = database.pin_snapshot()  # private counters, as a connection cursor has
        try:
            combination = CombinationPhase(plan, pin, shared).run()
            return list(combination.stream), combination.join_orders, combination.reductions
        finally:
            pin.release()

    for rows, orders, reductions in _race(phase):
        assert rows == oracle
        assert (orders, reductions) == (expected.join_orders, expected.reductions)
    assert shared.combination_plan is not None
    warm = CombinationPhase(plan, database, shared).run()
    assert warm.plan_reused and list(warm.stream) == oracle
