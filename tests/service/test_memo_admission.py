"""A one-off binding leaves nothing behind.

The per-binding memos — the service's text-key memo and a handle's bound
plans and collection results — store a key on its second sighting
(``BoundedLRU(..., second_sighting=True)``): the first only leaves the key's
hash in a doorkeeper.  So a text that never comes back costs its own work
and evicts nothing, a binding that does come back is served from its third
execution on, and a bound plan derives its selection and the wording of its
trace only when they are read (DESIGN "What outlives an execution").
"""

from __future__ import annotations

import gc

import pytest

import repro.service.binding as binding_module
from repro import connect
from repro.engine.explain import explain_prepared
from repro.service.binding import bind_selection
from repro.service.cache import BoundedLRU
from repro.workloads.university import build_university_database

#: ``adhoc_paper``'s ``running_query`` template: ``k`` makes every text distinct.
TEXT = """[<e.ename> OF EACH e IN employees:
    (e.estatus = {status}) AND (e.enr <= {k}) AND
    (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
     OR SOME c IN courses ((c.clevel <= {level})
        AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]"""


def text(k: int, status: str = "professor", level: str = "sophomore") -> str:
    return TEXT.format(k=k, status=status, level=level)


@pytest.fixture(scope="module")
def university():
    return build_university_database(scale=4)


def memo_sizes(connection, handle) -> tuple[int, int, int]:
    return (len(connection.service._text_keys), len(handle._bound_plans),
            len(handle._collections))


def test_one_off_texts_leave_every_memo_as_it_was(university):
    with connect(university) as connection:
        cursor = connection.cursor()
        cursor.execute(text(2)).fetchall()
        handle = connection.prepare(text(2))  # the shared memos hang off every handle
        before = memo_sizes(connection, handle)
        for k in range(4, 404, 2):
            cursor.execute(text(k)).fetchall()
        assert memo_sizes(connection, handle) == before


def test_the_second_execution_stores_and_the_third_reuses(university):
    with connect(university) as connection:
        cursor = connection.cursor()
        handle = connection.prepare(text(40))
        runs = []
        for _ in range(3):
            rows = [record.values for record in cursor.execute(text(40)).fetchall()]
            scans = sum(c["scans"] for c in cursor.statistics["relations"].values())
            runs.append((rows, cursor.result.combination.plan_reused, scans,
                         len(handle._collections)))
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert [run[1:] for run in runs] == [
            (False, runs[0][2], 0), (False, runs[0][2], 1), (True, 0, 1)]
        assert runs[0][2] > 0


def test_a_hot_binding_stays_resident_through_one_off_bindings(university):
    """The hot binding comes back every 40th op: more one-offs come between
    than the 32-entry memos hold, so a plain LRU has evicted it each time."""
    hot = text(40)
    with connect(university) as connection:
        cursor = connection.cursor()
        reused = []
        for op in range(541):  # 14 hot executions among 527 one-off bindings
            if op % 40 == 0:
                cursor.execute(hot).fetchall()
                reused.append(cursor.result.combination.plan_reused)
            else:
                cursor.execute(text(1000 + 2 * op)).fetchall()
        assert reused == [False, False] + [True] * 12

    # The same keys through a plain 32-entry LRU and an admitting one.
    plain, admitting = BoundedLRU(32), BoundedLRU(32, second_sighting=True)
    hits = {id(plain): 0, id(admitting): 0}
    for op in range(541):
        key = "hot" if op % 40 == 0 else op
        for memo in (plain, admitting):
            if memo.get(key) is not None:
                hits[id(memo)] += 1
            else:
                memo.put(key, key)
    assert (hits[id(plain)], hits[id(admitting)], len(admitting)) == (0, 12, 1)


def test_one_off_texts_grow_no_tracked_objects(university):
    """Tracked objects after two texts of the shape, after 50 more one-off texts
    and after 450 more: what the memos would hold, the collector would walk."""
    with connect(university) as connection:
        cursor = connection.cursor()
        counts = []
        for first, last in ((2, 6), (6, 106), (106, 1006)):
            for k in range(first, last, 2):
                cursor.execute(text(k)).fetchall()
            gc.collect()
            counts.append(len(gc.get_objects()))
        assert max(counts) - min(counts) < 100, counts


def test_a_bound_plan_derives_what_an_execution_does_not_read(university, monkeypatch):
    derived = []

    def counting(selection, values):
        derived.append(values)
        return bind_selection(selection, values)

    monkeypatch.setattr(binding_module, "bind_selection", counting)
    literal = text(40, status="student", level="junior")
    with connect(university) as connection:
        cursor = connection.cursor()
        for _ in range(3):
            cursor.execute(literal).fetchall()
        assert derived == []  # no combination execution read the bound selection
        result = cursor.result
        handle = connection.prepare(literal)
        shared = handle._plan
        values = handle._coerce_bindings(None)
        assert result.prepared.trace.names() == shared.trace.names()
        assert result.prepared.selection == bind_selection(shared.selection, values)
        assert len(derived) == 1
        for wording in (
            handle.trace.describe(),
            result.describe(),
            explain_prepared(result.prepared, university, handle.options, result.access_paths),
        ):
            assert "$" not in wording
            assert "junior" in wording and "<= 40" in wording


def test_threads_putting_each_key_twice_store_every_key():
    import sys
    import threading

    memo = BoundedLRU(64, second_sighting=True)
    keys = [(thread, key) for thread in range(8) for key in range(8)]

    def put_all(thread: int) -> None:
        for _ in range(2):
            for key in range(8):
                memo.put((thread, key), key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=put_all, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(memo) == 64 and all(key in memo for key in keys)
