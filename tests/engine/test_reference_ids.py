"""The combination phase on dense reference ids.

The equivalence matrix (``test_equivalence.py``) and the random-workload
properties (``test_properties.py``) pin the results; this module tests the
representation itself — the intern tables of a collection result, the
``ids`` cache of a structure under concurrent readers, the kernel's edge
paths, early pipeline shutdown, and row order across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import repro.engine.combination as combination_module
from repro import QueryEngine, StrategyOptions, connect, execute_naive
from repro.engine.collection import CollectionPhase, CollectionResult, ReferenceIds
from repro.engine.combination import CombinationPhase
from repro.engine.stream import LiveTupleTracker
from repro.relational.reference import Ref
from repro.relational.relation import Relation
from repro.types.scalar import INTEGER, CharArray, Enumeration
from repro.types.schema import RelationSchema
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT, COCITATION_TEXT
from repro.workloads.university import figure1_database

#: Strategy 1 only, so monadic and dyadic structures reach the combination
#: phase instead of dissolving into ranges (S3) or value lists (S4).
S1 = StrategyOptions.only(
    parallel_collection=True,
    join_order="histogram",
    semijoin_reduction=True,
    plan="streamed",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _ref_rows(relation) -> set:
    return {record.values for record in relation}


# ------------------------------------------------------------------- intern tables


class TestReferenceIds:
    def _relation(self, name, fields, key, rows) -> Relation:
        relation = Relation(name, RelationSchema(name, fields, key=key))
        for row in rows:
            relation.insert(dict(zip([f[0] for f in fields], row)))
        return relation

    def test_round_trip_over_composite_padded_and_enumeration_keys(self):
        level = Enumeration("level", ("low", "mid", "high"))
        links = self._relation(
            "links", [("src", INTEGER), ("dst", INTEGER)], ["src", "dst"],
            [(1, 2), (2, 1), (1, 1)],
        )
        names = self._relation(
            "names", [("name", CharArray(8)), ("n", INTEGER)], ["name"],
            [("ab", 1), ("ab c", 2), ("abcdefgh", 3)],
        )
        grades = self._relation(
            "grades", [("level", level), ("n", INTEGER)], ["level"],
            [("high", 1), ("low", 2)],
        )
        range_refs = {
            "l": list(links.refs()),
            "n": list(names.refs()),
            "g": list(grades.refs()),
            "m": list(names.refs())[:2],  # a second variable over ``names``
        }
        ids = ReferenceIds.of(range_refs)
        assert sorted(ids.ids) == ["grades", "links", "names"]
        for name, table in ids.ids.items():
            assert sorted(table.values()) == list(range(len(table)))  # dense
            assert [ids.refs[name][i].key for i in table.values()] == list(table)
        assert ("ab".ljust(8),) in ids.ids["names"]  # keys are stored blank-padded
        assert ids.ranges["m"] == ids.ranges["n"][:2]  # one table per relation

        rows = {(l, n, g) for l in range_refs["l"] for n in range_refs["n"] for g in range_refs["g"]}
        encoded = ids.encode(rows)
        assert encoded == sorted(encoded) and len(set(encoded)) == len(rows)
        tables = [ids.refs["links"], ids.refs["names"], ids.refs["grades"]]
        assert {tuple(t[i] for t, i in zip(tables, row)) for row in encoded} == rows
        assert ids.encode({(n,) for n in range_refs["m"]}) == ids.ranges["m"]
        assert ids.encode(set()) == []

    def test_equal_references_share_an_id_whatever_object_they_reference_through(self):
        first = self._relation("r", [("k", INTEGER)], ["k"], [(1,), (2,)])
        second = self._relation("r", [("k", INTEGER)], ["k"], [(1,), (2,)])
        ids = ReferenceIds.of({"x": list(first.refs())})
        assert ids.encode({(ref,) for ref in second.refs()}) == [(0,), (1,)]

    def test_hash_is_computed_once_and_equality_has_an_identity_fast_path(self):
        relation = self._relation("r", [("k", INTEGER)], ["k"], [(1,)])
        ref = Ref(relation, (1,))
        assert ref._hash is None  # writes create references they never hash
        assert hash(ref) == hash(Ref(relation, 1)) == ref._hash == hash(("r", (1,)))
        assert ref == ref and ref == Ref(relation, 1) and ref != Ref(relation, 2)
        assert ref != (1,)


# ------------------------------------------------------------------- kernel edge paths


def _phases(database, text, options=S1, plan=None):
    """``(plan, collection)`` of ``text`` — the inputs of a combination phase."""
    if plan is None:
        plan = QueryEngine(database, options).prepare(text, options)
    return plan, CollectionPhase(plan, database, options).run()


def _both_executions(database, plan, collection):
    """Free-variable reference rows of the streamed plan and of the literal
    Section 3.3 plan, plus the streamed plan's result object."""
    streamed = CombinationPhase(plan, database, collection, S1).run()
    literal = CombinationPhase(
        plan, database, collection, S1.with_(plan="literal")
    ).run()
    for result in (streamed, literal):
        for _ in result.stream:
            pass
    return _ref_rows(streamed.tuples), _ref_rows(literal.tuples), streamed


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
        assert all(
            structure.ids is not None
            for structures in collection.conjunctions if structures
            for structure in structures
        )
        return streamed

    def test_all_division(self):
        rows = self._check(figure1_database(), self.DIVISION, "ALL division")
        assert rows and all(isinstance(ref, Ref) for row in rows for ref in row)

    def test_disconnected_some_bound_structure_is_an_existence_gate(self):
        assert self._check(figure1_database(), self.GATE, "existence gate")

    def test_empty_range(self):
        # Plans compiled while ``papers`` had elements, run after it emptied,
        # so the kernel itself meets a range with no ids and no intern table.
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
        assert streamed == literal == {(ref,) for ref in collection.range_refs["e"]}
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

    def test_concurrent_executions_share_one_complete_ids_cache(self):
        database = build_bibliography_database(scale=1)
        options = StrategyOptions()
        plan, collection = _phases(database, COAUTHOR_PAIRS_TEXT, options)
        structures = [s for conjunction in collection.conjunctions for s in conjunction]
        sizes = {id(s): len(s.rows) for s in structures}
        assert all(s.ids is None for s in structures)

        start = threading.Barrier(self.THREADS + 1)
        done = threading.Event()
        rows: list[list] = []
        torn: list[tuple] = []

        def execute() -> None:
            start.wait(timeout=30)
            result = CombinationPhase(plan, database, collection, options).run()
            rows.append(list(result.stream))

        def observe() -> None:
            start.wait(timeout=30)
            while not done.is_set():
                for structure in structures:
                    ids = structure.ids
                    if ids is not None and len(ids) != sizes[id(structure)]:
                        torn.append((structure.description, len(ids)))

        workers = [threading.Thread(target=execute) for _ in range(self.THREADS)]
        observer = threading.Thread(target=observe)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in [observer, *workers]:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            done.set()
            observer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        assert not any(thread.is_alive() for thread in [observer, *workers])
        assert not torn
        assert len(rows) == self.THREADS and rows[0]
        assert all(other == rows[0] for other in rows[1:])  # same rows, same order
        assert all(s.ids is not None for s in structures)

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
