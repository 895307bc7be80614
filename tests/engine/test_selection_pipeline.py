"""Constant-matrix selections as a chunked pipeline, against the naive interpreter.

Strategy 3 moves a monadic restriction into the range, so point and range
queries collapse their matrix to TRUE and run as access chunks → projection →
distinct, planned once per compiled plan and read lazily, a chunk at a time.
What a caller can observe must not depend on any of that: the rows equal
``execute_naive``'s on the live in-memory, the live paged and the pinned
source, over range sizes around the chunk ramp's edges (0-3, 1 023-1 025,
2 047-2 049); a cursor closed after k rows holds nothing; and however the
fetch calls are interleaved they hand out the rows of one ``fetchall``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, QueryEngine, connect, execute_naive
from repro.errors import DanglingReferenceError
from repro.types.scalar import INTEGER, CharArray

SIZES = st.sampled_from([0, 1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049])
SOURCES = ("memory", "paged", "pinned")
PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def build_database(size: int, paged: bool) -> Database:
    """``items`` holds ``size`` elements (hash index on ``a``, sorted on ``k``);
    ``small`` three, ``pair`` two, ``void`` none."""
    database = Database("selection", paged=paged)
    database.create_relation(
        "items", [("k", INTEGER), ("a", INTEGER), ("b", INTEGER), ("tag", CharArray(6))], key=["k"],
        elements=[{"k": k, "a": k % 7, "b": k % 5, "tag": "abc" if k % 3 else "abcdef"}
                  for k in range(size)],
    )
    for name, count in (("small", 3), ("pair", 2), ("void", 0)):
        database.create_relation(
            name, [("k", INTEGER), ("v", INTEGER)], key=["k"],
            elements=[{"k": k, "v": k} for k in range(count)],
        )
    database.create_index("items", "a", operator="=")
    database.create_index("items", "k", operator="<=")
    return database


#: Read-only examples share one database per size and backend (and with it
#: the index views the pins publish: scan, build and probe all get exercised).
shared_database = lru_cache(maxsize=None)(build_database)


@st.composite
def selections(draw, size: int) -> str:
    """A one- to three-variable selection whose matrix is (mostly) constant."""
    bound = st.sampled_from([0, 1, size // 2, max(size - 1, 0), size, 1023, 1024])
    small = st.integers(min_value=0, max_value=6)
    conjuncts = draw(st.lists(st.sampled_from([
        "(x.k >= 0)", "(x.k <= {c})", "(x.k >= {c})", "({c} >= x.k)", "(x.a = {m})",
        "(x.a <> {m})", "(x.b <= {m})", "(x.b = {m})", "(x.tag = 'abc')", "(x.tag <> 'abcdef')",
    ]), min_size=1, max_size=3))
    terms = [c.format(c=draw(bound), m=draw(small)) for c in conjuncts]
    bindings, columns = ["EACH x IN items"], ["x.k", "x.a", "x.b", "x.tag"]
    for var, relation in draw(st.sampled_from([(), (("s", "small"),), (("s", "small"), ("t", "pair"))])):
        bindings.append(f"EACH {var} IN {relation}")
        columns.append(f"{var}.v")
        if draw(st.booleans()):
            terms.append(f"({var}.v >= {draw(st.integers(min_value=0, max_value=3))})")
    terms.extend(draw(st.sampled_from([
        [], [], [],
        ["SOME q IN void ((q.v = 1))"],    # Lemma 1: the matrix is FALSE
        ["ALL q IN void ((q.v = 1))"],     # ... or TRUE
        ["SOME q IN small ((q.v = 1))"],   # an extended quantifier range, not empty
        ["SOME q IN small ((q.v = 99))"],  # ... and empty: the Strategy 3 fallback
    ])))
    chosen = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    return f"[<{', '.join(chosen)}> OF {', '.join(bindings)}: {' AND '.join(terms)}]"


def cursor_on(connection, source: str):
    return connection.cursor() if source == "pinned" else connection.session().cursor()


@PROPERTY
@given(data=st.data(), size=SIZES)
def test_a_selection_equals_the_naive_interpreter_on_every_source(data, size):
    text = data.draw(selections(size))
    for source in SOURCES:
        database = shared_database(size, paged=source != "memory")
        expected = execute_naive(database, text)
        connection = connect(database)
        cursor = cursor_on(connection, source)
        # Three executions: a pin scans, then builds the index view, then probes it.
        for _ in range(3 if source == "pinned" else 1):
            rows = cursor.execute(text).fetchall()
            assert len(rows) == len(expected) and cursor.result.relation == expected, (source, text)
            assert cursor.rowcount == len(rows)
        connection.close()
        assert database._snapshots.active == 0


@PROPERTY
@given(data=st.data(), size=SIZES, source=st.sampled_from(SOURCES))
def test_closing_after_k_rows_holds_nothing_and_stamps_the_statistics(data, size, source):
    database = shared_database(size, paged=source != "memory")
    text = data.draw(selections(size))
    wanted = data.draw(st.sampled_from([0, 1, 2, 3, 1024, 1500]))
    with connect(database) as connection, database.pin_snapshot():
        cursor = cursor_on(connection, source).execute(text)
        fetched = cursor.fetchmany(wanted)
        result = cursor.result
        cursor.close()
        assert database._snapshots.active == 1  # the pin held here, and no other
        if source == "paged":
            assert database.relation("items").buffer_pool.pinned_pages() == 0
        # The final stamp — it shows the reads the fetch did after execute's —
        # taken when the rows ended, and the cursor's from then on.
        assert cursor.statistics is result.statistics
        read = sum(c["elements_read"] for c in result.statistics["relations"].values())
        assert read > 0 or not fetched
    assert database._snapshots.active == 0


FETCHES = st.lists(
    st.sampled_from(["one", "many0", "many3", "many700", "iterate2", "default"]), max_size=12
)


@PROPERTY
@given(data=st.data(), size=SIZES, source=st.sampled_from(SOURCES), calls=FETCHES)
def test_interleaved_fetch_calls_hand_out_the_rows_of_one_fetchall(data, size, source, calls):
    database = shared_database(size, paged=source != "memory")
    text = data.draw(selections(size))
    connection = connect(database)
    cursor = cursor_on(connection, source)
    expected = cursor.execute(text).fetchall()
    cursor.execute(text)
    got: list = []
    for call in calls:
        before = len(got)
        if call == "one":
            record = cursor.fetchone()
            got.extend([] if record is None else [record])
            finished = record is None
        elif call == "iterate2":
            got.extend(record for _, record in zip(range(2), cursor))
            finished = False
        else:
            size_asked = {"many0": 0, "many3": 3, "many700": 700, "default": None}[call]
            got.extend(cursor.fetchmany(size_asked))
            asked = cursor.arraysize if size_asked is None else size_asked
            finished = len(got) - before < asked
        assert got == expected[: len(got)]
        # -1 until a fetch has come back short: only then is the total known.
        assert cursor.rowcount == (len(expected) if finished or cursor.rowcount >= 0 else -1)
    got.extend(cursor.fetchall())
    assert got == expected and cursor.rowcount == len(expected)
    assert cursor.fetchone() is None and cursor.fetchmany(5) == [] and cursor.fetchall() == []
    connection.close()


@pytest.mark.parametrize("source", SOURCES)
def test_deduplicated_rows_come_in_first_witness_order(source):
    """Distinct is a dict in arrival order, never a set: the rows — strings
    among them — come as their first witnesses did under any ``PYTHONHASHSEED``
    (CI runs this file under two)."""
    text = "[<x.tag, x.b, s.v> OF EACH x IN items, EACH s IN pair: (x.k >= 0)]"
    witnesses = dict.fromkeys(
        ("abc   " if k % 3 else "abcdef", k % 5, v) for k in range(1025) for v in range(2)
    )
    with connect(shared_database(1025, paged=source != "memory")) as connection:
        cursor = cursor_on(connection, source)
        for _ in range(3):
            assert [tuple(row) for row in cursor.execute(text).fetchall()] == list(witnesses)


#: (text, binding, whether the projection holds every free range's key).
KEY_CASES = [
    ("[<p.pyear> OF EACH p IN papers: (p.pyear <= $year)]", {"year": 1978}, False),
    ("[<e.ename, c.clevel> OF EACH e IN employees, EACH c IN courses: "
     "(e.enr <= 3) AND (c.clevel <= $level)]", {"level": "junior"}, False),
    ("[<p.ptitle, p.penr, p.pyear> OF EACH p IN papers: (p.pyear <= $year)]", {"year": 1978}, True),
    ("[<e.enr, c.clevel, c.cnr> OF EACH e IN employees, EACH c IN courses: "
     "(e.enr <= 3) AND (c.clevel <= $level)]", {"level": "junior"}, True),
    # Strategy 3 extends the quantifier's range; the matrix is still TRUE.
    ("[<e.enr, e.ename> OF EACH e IN employees: (e.enr <= 10) AND "
     "SOME p IN papers ((p.pyear = $year))]", {"year": 1977}, True),
]


@pytest.mark.parametrize("text, binding, covered", KEY_CASES)
def test_the_dedup_shortcut_is_taken_only_when_the_key_is_covered(text, binding, covered):
    """Relations are keyed sets, so a selection projecting every free range's
    key is duplicate-free by construction and its rows skip the duplicate
    pass.  Either way the rows equal the naive interpreter's, hold no
    duplicate, and come in the order the duplicate pass gives them."""
    from repro.workloads.queries import inline_parameters
    from repro.workloads.university import build_university_database

    database = build_university_database(scale=2)
    expected = execute_naive(database, inline_parameters(text, binding))
    engine_rows = QueryEngine(database).run(inline_parameters(text, binding)).rows
    with connect(database) as connection:
        cursor = connection.cursor()
        rows = cursor.execute(text, binding).fetchall()
        plans = cursor.result.prepared.selection_plan
        assert cursor.result.prepared.constant
        assert [held[2][1] for held in plans.values()] == [covered]
        assert len(set(rows)) == len(rows) and cursor.result.relation == expected
        assert rows == engine_rows
        # The parent's order: the same plan, through the duplicate pass.
        for kind, (token, decisions, (getter, _)) in list(plans.items()):
            plans[kind] = (token, decisions, (getter, False))
        assert cursor.execute(text, binding).fetchall() == rows


def test_a_settled_decision_is_taken_once_per_contents_version(monkeypatch):
    """Plan once, wire every time: on pins the selector runs while the index
    view is rented and built, then not again — whatever the bound value —
    until the contents version moves; on the live database (the engine door)
    the index is ready and a probe is priced by the same rule, so it decides
    once."""
    from repro.engine import evaluator

    decided = []

    def counting(*arguments):
        decided.append(arguments[1])
        return decide_access(*arguments)

    decide_access = evaluator.decide_access
    monkeypatch.setattr(evaluator, "decide_access", counting)
    database = build_database(64, paged=False)
    text = "[<x.k> OF EACH x IN items: (x.a = $a) AND (x.b <= 3)]"

    def rows(cursor, a):
        expected = [k for k in range(len(database.relation("items"))) if k % 7 == a and k % 5 <= 3]
        assert sorted(r.k for r in cursor.execute(text, {"a": a}).fetchall()) == expected
        return cursor.result.access_paths["x"]

    with connect(database) as connection:
        pinned = connection.cursor()
        assert [rows(pinned, a).split(" (")[0] for a in range(5)] == (
            ["scan items"] + ["probe ind_items_a"] * 4
        )
        assert len(decided) == 3  # rented, built, settled
        with connection.session():
            database.relation("items").insert({"k": 64, "a": 1, "b": 4, "tag": "abc"})
        assert [rows(pinned, a).split(" (")[0] for a in range(5)] == (
            ["scan items"] + ["probe ind_items_a"] * 4
        )
        assert len(decided) == 6  # a new contents version: the same three again
        handle, engine = connection.prepare(text), QueryEngine(database)

        def live(a):
            result = engine.execute_plan(handle.bind({"a": a})).drain()
            return result.access_paths["x"]

        assert all("probe ind_items_a" in live(a) for a in range(4))
        assert len(decided) == 7  # settled at once, whatever the bound value
        assert "items.a = 6" in rows(pinned, 6) and len(decided) == 7  # the pins' entry stands
        with connection.session():
            database.relation("items").insert({"k": 65, "a": 2, "b": 0, "tag": "abc"})
        assert "probe ind_items_a" in live(2) and len(decided) == 8


@pytest.mark.parametrize("paged", [False, True], ids=["memory", "paged"])
def test_an_element_deleted_between_two_fetches_is_a_dangling_reference(paged):
    """On the live database (the engine door) a selection is lazy: the index
    is probed at the first pull and each chunk of keys read when it is
    pulled.  Deleting one of those elements in between gets what a streamed
    join gives a reference deleted under it: :class:`DanglingReferenceError`,
    not a silently shorter result — and the execution ends there, statistics
    stamped.  A session cursor reads a pin and returns the state of its
    ``execute``."""
    database = build_database(64, paged)
    text = "[<x.k, x.a> OF EACH x IN items: (x.k <= 40)]"
    engine = QueryEngine(database)
    result = engine.execute_plan(engine.prepare(text))
    assert "probe sorted_items_k" in result.access_paths["x"]
    chunks = result.row_iterator
    assert [record.k for record in next(chunks) + next(chunks)] == [0, 1, 2]  # chunks of 1 and 2
    assert database.relation("items").delete_key(5)
    with pytest.raises(DanglingReferenceError, match=r"@items\[\(5,\)\]"):
        list(chunks)
    assert result.statistics["relations"]["items"]["index_probes"] == 1
    # The next execution probes the maintained index and simply misses it.
    assert 5 not in [record.k for record in engine.run(text).rows]
    with connect(database) as connection, connection.session() as session:
        cursor = session.cursor().execute(text)
        assert [record.k for record in cursor.fetchmany(3)] == [0, 1, 2]
        assert database.relation("items").delete_key(6)  # inside the session's transaction
        assert 6 in [record.k for record in cursor.fetchall()]


def test_kept_decisions_serve_only_the_policy_the_plan_was_compiled_under():
    """``execute_plan`` takes an ``options`` argument: another policy decides
    for itself — and reports what it did — instead of inheriting the decisions
    the plan keeps for its own, and leaves those where they are."""
    from repro import QueryEngine, StrategyOptions

    database = build_database(64, paged=False)
    options = StrategyOptions()
    engine = QueryEngine(database, options)
    plan = engine.prepare("[<x.k> OF EACH x IN items: (x.a = 3)]")
    expected = [k for k in range(64) if k % 7 == 3]

    def executed(result):
        assert sorted(record.k for record in result.drain().rows) == expected
        return result.access_paths["x"], result.statistics["relations"]["items"]

    path, counters = executed(engine.execute_plan(plan))
    assert "probe ind_items_a" in path and counters["index_probes"] == 1
    (token, decisions, _), = plan.selection_plan.values()
    assert [decision.kind for decision in decisions] == ["probe"] and decisions[0].settled
    path, counters = executed(engine.execute_plan(plan, options.with_(use_index_paths=False)))
    assert path == "scan items"
    assert counters["index_probes"] == 0 and counters["scans"] == 1
    assert plan.selection_plan[type(database)][1] is decisions
    assert "probe ind_items_a" in executed(engine.execute_plan(plan))[0]
