"""Reference ids: interned at the scan, computed on, decoded at construction.

The equivalence matrix (``test_equivalence.py``) and the random-workload
properties (``test_properties.py``) pin the results; this module tests the
representation itself — the collection phase's intern tables (dense per
relation, in the order elements are read, one per relation whatever path
reads it, round-tripping every kind of key), the kernel's edge paths, early
pipeline shutdown, concurrent executions over one memoized collection
result, and row order across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import repro.engine.combination as combination_module
from repro import QueryEngine, StrategyOptions, connect, execute_naive
from repro.engine.collection import CollectionPhase, CollectionResult
from repro.engine.combination import CombinationPhase
from repro.engine.construction import ConstructionPhase
from repro.engine.stream import LiveTupleTracker
from repro.relational.database import Database
from repro.relational.reference import Ref
from repro.types.scalar import INTEGER, CharArray, Enumeration
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT, COCITATION_TEXT
from repro.workloads.university import build_university_database, figure1_database

#: Strategy 1 only, so monadic and dyadic structures reach the combination
#: phase instead of dissolving into ranges (S3) or value lists (S4).
S1 = StrategyOptions.only(
    parallel_collection=True,
    join_order="histogram",
    semijoin_reduction=True,
    plan="streamed",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _id_rows(tuples) -> set:
    """A combination result's free reference-id rows (bare tuples, distinct) as a set."""
    rows = set(tuples.rows)
    assert len(rows) == len(tuples.rows) and all(type(row) is tuple for row in rows)
    return rows


def _decoded(database, plan, collection, var) -> list[tuple]:
    """``var``'s range, decoded through its relation's intern table to keys."""
    keys = collection.keys[plan.range_of(var).relation]
    return [keys[number] for (number,) in collection.range_refs[var]]


# ------------------------------------------------------------------- intern tables


class TestInterning:
    def test_round_trip_over_composite_padded_and_enumeration_keys(self):
        level = Enumeration("level", ("low", "mid", "high"))
        database = Database("keys")
        database.create_relation(
            "links", [("src", INTEGER), ("dst", INTEGER)], key=["src", "dst"],
            elements=[{"src": s, "dst": d} for s, d in [(1, 2), (2, 1), (1, 1)]],
        )
        database.create_relation(
            "names", [("name", CharArray(8)), ("n", INTEGER)], key=["name"],
            elements=[{"name": m, "n": n} for m, n in [("ab", 1), ("ab c", 2), ("abcdefgh", 3)]],
        )
        database.create_relation(
            "grades", [("level", level), ("n", INTEGER)], key=["level"],
            elements=[{"level": g, "n": n} for g, n in [("high", 1), ("low", 2)]],
        )
        text = (
            "[<l.src, l.dst, n.name, g.level> OF EACH l IN links, EACH n IN names, "
            "EACH g IN grades: (l.src >= 1) AND (n.n >= 1) AND (g.n >= 1) AND "
            "SOME m IN names (m.name = n.name)]"
        )
        plan = QueryEngine(database, S1).prepare(text, S1)
        collection = CollectionPhase(plan, database, S1).run()
        assert sorted(collection.keys) == ["grades", "links", "names"]
        for name in collection.keys:
            relation = database.relation(name)
            assert collection.keys[name] == relation.keys()  # every element, in scan order
        assert ("ab".ljust(8),) in collection.keys["names"]  # keys are stored blank-padded
        # ``m`` and ``n`` range over ``names``: one table, one id per element.
        assert collection.range_refs["m"] == collection.range_refs["n"]
        for var in ("l", "n", "g", "m"):
            relation = database.relation(plan.range_of(var).relation)
            keys = _decoded(database, plan, collection, var)
            assert relation.find_many(keys) == relation.elements()
            assert [Ref(relation, key).deref() for key in keys] == relation.elements()
        # Construction decodes the same tables: the rows are the naive interpreter's.
        assert QueryEngine(database, S1).run(text).relation == execute_naive(database, text)

    def test_ids_are_dense_per_relation_in_scan_order(self):
        database = figure1_database()
        options = StrategyOptions.only(parallel_collection=True, extended_ranges=True)
        text = (
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND "
            "SOME p IN papers (e.enr = p.penr)]"
        )
        plan = QueryEngine(database, options).prepare(text, options)
        assert plan.range_of("e").restriction is not None  # Strategy 3 restricted the range
        collection = CollectionPhase(plan, database, options).run()
        employees, papers = database.relation("employees"), database.relation("papers")
        professors = [
            key for key, record in zip(employees.keys(), employees.elements())
            if record.estatus.label == "professor"
        ]
        # Only what a range holds is interned: ids 0..n-1, in the order read.
        assert collection.keys["employees"] == professors
        assert collection.range_refs["e"] == [(i,) for i in range(len(professors))]
        assert collection.keys["papers"] == papers.keys()
        assert collection.range_refs["p"] == [(i,) for i in range(len(papers))]
        # A second collection reads the same order and hands out the same ids.
        again = CollectionPhase(plan, database, options).run()
        assert again.keys == collection.keys and again.conjunctions == collection.conjunctions

    def test_a_probe_variable_and_a_scan_variable_share_one_table(self):
        database = build_university_database(scale=4)
        database.create_index("employees", "enr")
        options = StrategyOptions.only(extended_ranges=True, use_index_paths=True)
        text = (
            "[<a.ename, b.ename> OF EACH a IN employees, EACH b IN employees: "
            "(a.enr = 5) AND (a.estatus = b.estatus)]"
        )
        with database.pin_snapshot() as pin:
            plan = QueryEngine(pin, options).prepare(text, options)
            phase = CollectionPhase(plan, pin, options)
            assert phase.access_paths()["a"].startswith("probe")
            assert phase.access_paths()["b"].startswith("scan")
            collection = phase.run()
        employees = database.relation("employees")
        (probed,) = _decoded(database, plan, collection, "a")
        scanned = _decoded(database, plan, collection, "b")
        assert employees[probed].enr == 5
        # The probe read first and took id 0; the scan met that element again
        # and kept its id, so the one table holds each element once.
        assert collection.range_refs["a"] == [(0,)]
        assert (0,) in collection.range_refs["b"] and len(scanned) == len(employees)
        assert sorted(collection.keys["employees"]) == sorted(employees.keys())
        assert QueryEngine(database, options).run(text).relation == execute_naive(database, text)

    def test_equal_contents_read_through_different_objects_intern_alike(self):
        first, second = figure1_database(), figure1_database()
        plan = QueryEngine(first, S1).prepare(TestKernelEdgePaths.GATE, S1)
        with second.pin_snapshot() as pin:
            results = [CollectionPhase(plan, source, S1).run() for source in (first, pin)]
        assert results[0].keys == results[1].keys
        assert results[0].range_refs == results[1].range_refs
        assert results[0].conjunctions == results[1].conjunctions

    def test_hash_is_computed_once_and_equality_has_an_identity_fast_path(self):
        relation = figure1_database().relation("employees")
        key = relation.keys()[0]
        ref = Ref(relation, key)
        assert ref._hash is None  # writes create references they never hash
        assert hash(ref) == hash(Ref(relation, key)) == ref._hash == hash(("employees", key))
        assert ref == ref and ref == Ref(relation, key) and ref != Ref(relation, relation.keys()[1])
        assert ref != key


# ------------------------------------------------------------------- kernel edge paths


def _phases(database, text, options=S1, plan=None):
    """``(plan, collection)`` of ``text`` — the inputs of a combination phase."""
    if plan is None:
        plan = QueryEngine(database, options).prepare(text, options)
    return plan, CollectionPhase(plan, database, options).run()


def _both_executions(database, plan, collection):
    """Free-variable reference-id rows of the streamed plan and of the literal
    Section 3.3 plan, plus the streamed plan's result object."""
    streamed = CombinationPhase(plan, database, collection, S1).run()
    literal = CombinationPhase(
        plan, database, collection, S1.with_(plan="literal")
    ).run()
    for result in (streamed, literal):
        for _ in result.stream:
            pass
    return _id_rows(streamed.tuples), _id_rows(literal.tuples), streamed


class TestKernelEdgePaths:
    DIVISION = (
        "[<e.ename> OF EACH e IN employees: "
        "ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]"
    )
    GATE = (
        "[<e.ename> OF EACH e IN employees: "
        "(e.estatus = professor) AND SOME p IN papers (p.pyear = 1977)]"
    )

    def _check(self, database, text, expected_op, plan=None):
        plan, collection = _phases(database, text, plan=plan)
        streamed, literal, result = _both_executions(database, plan, collection)
        assert streamed == literal
        assert any(expected_op in note.op for note in result.operator_notes), [
            note.describe() for note in result.operator_notes
        ]
        assert QueryEngine(database, S1).run(text).relation == execute_naive(database, text)
        return streamed

    def test_all_division(self):
        rows = self._check(figure1_database(), self.DIVISION, "ALL division")
        assert rows and all(type(number) is int for row in rows for number in row)

    def test_disconnected_some_bound_structure_is_an_existence_gate(self):
        assert self._check(figure1_database(), self.GATE, "existence gate")

    def test_empty_range(self):
        # Plans compiled while ``papers`` had elements, run after it emptied,
        # so the kernel itself meets a range with no ids and an empty intern table.
        # (The standard form presumes non-empty ranges: a fresh compile adapts
        # it instead — next test — and the service layer recompiles stale
        # plans, so the kernel only has to agree with the literal procedure.)
        database = figure1_database()
        engine = QueryEngine(database, S1)
        division, gate = engine.prepare(self.DIVISION, S1), engine.prepare(self.GATE, S1)
        database.relation("papers").clear()
        assert self._check(database, self.DIVISION, "ALL division", plan=division) == set()
        # The empty single list is now the smallest structure: the chain starts there.
        assert self._check(database, self.GATE, "scan single list (p.pyear", plan=gate) == set()

    def test_true_conjunction_enumerates_the_first_range(self):
        # Lemma 1: ALL over an empty relation compiles to a TRUE conjunction.
        database = figure1_database()
        database.relation("papers").clear()
        rows = self._check(database, self.DIVISION, "scan range of e")
        assert len(rows) == len(database.relation("employees"))
        # ... and a hand-made one, with a SOME-bound unmentioned variable.
        database = figure1_database()
        plan, collection = _phases(database, self.GATE)
        true = CollectionResult(range_refs=collection.range_refs, conjunctions=[[]])
        streamed, literal, result = _both_executions(database, plan, true)
        assert streamed == literal == set(collection.range_refs["e"])
        assert any("TRUE conjunction" in note.reason for note in result.operator_notes)

    def test_early_cursor_close_releases_breaker_state(self, monkeypatch):
        trackers: list[LiveTupleTracker] = []

        class Spy(LiveTupleTracker):
            def __init__(self) -> None:
                super().__init__()
                trackers.append(self)

        monkeypatch.setattr(combination_module, "LiveTupleTracker", Spy)
        database = figure1_database()
        cursor = connect(database, options=S1).execute(
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor) OR (e.enr < 7)]"
        )
        assert cursor.fetchone() is not None
        (live,) = trackers
        combination = cursor.result.combination
        assert live.current > 0  # the union's dedup set is live mid-stream
        cursor.close()
        assert live.current == 0
        assert combination.peak_tuples == live.peak > 0
        assert 0 < combination.union_size < len(database.relation("employees"))
        assert cursor.statistics["rows_streamed"] > 0


# ------------------------------------------------------------------- sharing


class TestSharedCollectionResult:
    THREADS = 8

    def test_threads_on_one_memoized_collection_fetch_identical_rows(self):
        """Executions sharing one collection result only read it: its id
        structures and intern tables never change, and every execution wires
        the one published plan into the same rows, in the same order."""
        database = build_bibliography_database(scale=1)
        options = StrategyOptions()
        plan, collection = _phases(database, COAUTHOR_PAIRS_TEXT, options)
        structures = [s for conjunction in collection.conjunctions for s in conjunction]
        before = [list(s.rows) for s in structures], dict(collection.keys)

        start = threading.Barrier(self.THREADS)
        fetched: list[list] = []

        def execute() -> None:
            start.wait(timeout=30)
            combination = CombinationPhase(plan, database, collection, options).run()
            rows = ConstructionPhase(plan.selection, database).run(combination)
            fetched.append([record.values for record in rows])

        workers = [threading.Thread(target=execute) for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert len(fetched) == self.THREADS and fetched[0]
        assert all(other == fetched[0] for other in fetched[1:])  # same rows, same order
        assert ([list(s.rows) for s in structures], collection.keys) == before
        assert collection.combination_plan is not None
        expected = execute_naive(database, COAUTHOR_PAIRS_TEXT)
        assert sorted(fetched[0]) == sorted(record.values for record in expected)

    def test_two_threads_on_one_prepared_query_fetch_identical_rows(self):
        database = build_bibliography_database(scale=1)
        connection = connect(database)
        expected = connection.execute(COCITATION_TEXT).fetchall()  # fills the memo
        fetched: list[list] = []

        def reader() -> None:
            fetched.append(connection.cursor().execute(COCITATION_TEXT).fetchall())

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert expected and fetched == [expected, expected]
        assert sorted(r.values for r in expected) == sorted(
            r.values for r in execute_naive(database, COCITATION_TEXT)
        )


# ------------------------------------------------------------------- determinism

_ROW_ORDER_SCRIPT = """
from repro import connect
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import bibliography_named_queries

connection = connect(build_bibliography_database(scale=1))
for name, selection in bibliography_named_queries().items():
    for record in connection.execute(selection).fetchall():
        print(name, record.values)
"""


def test_fetched_row_order_is_independent_of_the_hash_seed():
    """Int ids replaced the name-based ``Ref`` hash (salted per process, like
    every ``str`` hash) in every set the combination phase iterates."""
    outputs = []
    for seed in ("0", "1982", "random"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        completed = subprocess.run(
            [sys.executable, "-c", _ROW_ORDER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
