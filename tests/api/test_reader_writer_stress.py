"""Satellite: 8 pinned readers vs one mutating writer — never a torn read.

The writer rewrites a whole generation relation per transaction (every row
carries the generation number), committing some and rolling others back, and
records the contents committed at each ``data_version``.  Readers pin
snapshots (directly and through connection cursors) in a tight loop.  The
invariants under test:

* **Exactness** — a pin's contents are exactly what the writer committed at
  the pin's ``data_version``: never a mix of two generations, never an
  uncommitted or rolled-back row, by direct lookup in the writer's log.
* **Monotonicity** — consecutive pins on one thread never move backwards.
"""

from __future__ import annotations

import sys
import threading

from repro import QueryEngine, connect, execute_naive
from repro.relational.database import Database
from repro.types.scalar import INTEGER

_READERS = 8
_PINS_PER_READER = 60
_ROWS = 5
_WRITER_GENERATIONS = 40

_QUERY = "[<g.k, g.gen> OF EACH g IN gens: (g.k >= 0)]"


def _make_database() -> Database:
    database = Database("stress")
    database.create_relation(
        "gens",
        [("k", INTEGER), ("gen", INTEGER)],
        key=["k"],
        elements=[{"k": k, "gen": 0} for k in range(_ROWS)],
    )
    return database


def _generation_rows(generation: int) -> set[tuple]:
    return {(k, generation) for k in range(_ROWS)}


def test_eight_readers_observe_exactly_their_pinned_version():
    database = _make_database()
    connection = connect(database)
    gens = database.relation("gens")

    # data_version -> committed generation, maintained by the writer.  The
    # initial state is generation 0 at the current mutation epoch.
    committed: dict[int, int] = {database.statistics.mutation_epoch: 0}
    committed_lock = threading.Lock()
    writer_done = threading.Event()
    errors: list[BaseException] = []
    start = threading.Barrier(_READERS + 2)

    def writer() -> None:
        try:
            start.wait()
            session = connection.session()
            current = 0
            for generation in range(1, _WRITER_GENERATIONS + 1):
                session.begin()
                gens.assign([{"k": k, "gen": generation} for k in range(_ROWS)])
                if generation % 4 == 0:
                    # A rolled-back generation: no pin may ever surface it.
                    # The undo replay advances the mutation epoch, so the
                    # *restored* generation gets logged at the new version.
                    session.rollback()
                else:
                    session.commit()
                    current = generation
                with committed_lock:
                    committed[database.statistics.mutation_epoch] = current
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(slot: int) -> None:
        try:
            start.wait()
            last_version = -1
            cursor = connection.cursor()
            for round_number in range(_PINS_PER_READER):
                if round_number % 2 == 0:
                    # Direct pin: raw contents vs the writer's committed log.
                    snapshot = database.pin_snapshot()
                    try:
                        rows = {
                            tuple(record.values)
                            for record in snapshot.relation("gens").scan()
                        }
                        version = snapshot.data_version
                    finally:
                        snapshot.release()
                else:
                    # Cursor pin: the same invariant through the front door.
                    cursor.execute(_QUERY)
                    rows = {record.values for record in cursor.fetchall()}
                    version = None
                generations = {generation for _, generation in rows}
                assert len(rows) == _ROWS and len(generations) == 1, (
                    f"reader {slot} saw a torn state: {sorted(rows)}"
                )
                (generation,) = generations
                assert generation % 4 != 0 or generation == 0, (
                    f"reader {slot} saw rolled-back generation {generation}"
                )
                if version is not None:
                    # The writer records each commit *after* it completes, so
                    # wait for the log to catch up before the exact check.
                    while True:
                        with committed_lock:
                            expected = committed.get(version)
                        if expected is not None or writer_done.is_set():
                            break
                    with committed_lock:
                        expected = committed.get(version)
                    assert expected is not None, (
                        f"reader {slot} pinned unknown data_version {version}"
                    )
                    assert rows == _generation_rows(expected), (
                        f"reader {slot} at data_version {version}: "
                        f"saw generation {generation}, committed {expected}"
                    )
                    assert version >= last_version, "pins moved backwards"
                    last_version = version
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,), name=f"reader-{slot}")
        for slot in range(_READERS)
    ] + [threading.Thread(target=writer, name="writer")]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=600)
        assert not thread.is_alive(), f"{thread.name} did not finish"
    assert not errors, errors
    connection.close()

    # The writer's final committed generation is what the live state holds.
    final = {tuple(record.values) for record in gens.scan()}
    last_committed = committed[max(committed)]
    assert final == _generation_rows(last_committed)


# ------------------------------------------------- indexed reads beside the writer

_POINT = "[<g.k, g.gen> OF EACH g IN gens: (g.k = {k})]"
_RANGE = "[<g.k, g.gen> OF EACH g IN gens: (g.gen <= {gen})]"
_POINT_PREPARED = _POINT.format(k="$k")
_RANGE_PREPARED = _RANGE.format(gen="$gen")


def test_indexed_readers_beside_a_writer_on_the_same_indexed_relation():
    """Point and range probes over index views while a session commits to the
    very relation the indexes cover.

    Readers outnumber the cores and the switch interval is shortened, so view
    builds, slot notes and publications and copy-on-write interleave at
    bytecode granularity.  Direct pins check the engine (scans, then index
    probes over the pin's views) against the naive interpreter *over the same pin*; front-door
    cursors check the writer's invariant: every committed state holds each
    key exactly once, all at one generation, never a rolled-back one.
    """
    database = _make_database()
    database.create_index("gens", "k", operator="=")
    database.create_index("gens", "gen", operator="<=")
    connection = connect(database)
    gens = database.relation("gens")
    errors: list[BaseException] = []
    writer_done = threading.Event()
    readers = 6
    start = threading.Barrier(readers + 2)

    def writer() -> None:
        try:
            start.wait()
            session = connection.session()
            for generation in range(1, _WRITER_GENERATIONS + 1):
                session.begin()
                if generation % 2:
                    gens.assign([{"k": k, "gen": generation} for k in range(_ROWS)])
                else:  # the per-element path: every index entry moves
                    for k in range(_ROWS):
                        gens.delete_key(k)
                        gens.insert({"k": k, "gen": generation})
                if generation % 4 == 0:
                    session.rollback()
                else:
                    session.commit()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(slot: int) -> None:
        try:
            start.wait()
            cursor = connection.cursor()
            round_number = 0
            while not writer_done.is_set() or round_number < 4:
                round_number += 1
                k = (slot + round_number) % _ROWS
                if round_number % 2:
                    with database.pin_snapshot() as snapshot:
                        generation = next(iter(snapshot.relation("gens")))["gen"]
                        for text in (
                            _POINT.format(k=k),
                            _RANGE.format(gen=generation),
                            _RANGE.format(gen=max(generation - 1, 0)),
                        ):
                            want = sorted(r.values for r in execute_naive(snapshot, text))
                            # The first run at a fresh version may scan (the
                            # view is not on offer yet); the pin's second
                            # request for the same index always probes.
                            for attempt in range(2):
                                got = QueryEngine(snapshot).run(text)
                                assert sorted(r.values for r in got.relation) == want, (
                                    f"reader {slot}: {text}"
                                )
                            assert got.statistics["index_probes"] >= 1, text
                            assert "probe" in got.access_paths["g"], text
                else:
                    point = cursor.execute(_POINT_PREPARED, {"k": k}).fetchall()
                    assert [record["k"] for record in point] == [k], point
                    everything = cursor.execute(
                        _RANGE_PREPARED, {"gen": _WRITER_GENERATIONS}
                    ).fetchall()
                    generations = {record["gen"] for record in everything}
                    assert sorted(record["k"] for record in everything) == list(
                        range(_ROWS)
                    ) and len(generations) == 1, f"reader {slot} saw a torn state"
                    (generation,) = generations
                    assert generation % 4 != 0 or generation == 0, (
                        f"reader {slot} saw rolled-back generation {generation}"
                    )
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(slot,), name=f"reader-{slot}")
            for slot in range(readers)
        ] + [threading.Thread(target=writer, name="writer")]
        for thread in threads:
            thread.start()
        start.wait()
        for thread in threads:
            thread.join(timeout=600)
            assert not thread.is_alive(), f"{thread.name} did not finish"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    connection.close()
    assert database._snapshots.active == 0
