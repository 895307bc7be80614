"""Strategy 4 value lists outlive the query (the ``ValueListMemo``).

One entry per (derived predicate with its constants bound, catalog version,
contents version of every relation the predicate reads), shared by the
executions of every shape, on every pin.  Four angles:

* a stateful model — writes, transactions, pins held across commits, DDL
  and the four parameterized paper queries, through the session (a
  statement pin inside a transaction) and on committed pins — in which every
  read equals the naive interpreter at the reader's own state and every
  reachable memo entry equals a fresh build;
* eight pinned readers sharing entries beside a committing writer;
* an empty restricted range: the Strategy 3 fallback fires on every
  execution, because a build that raises publishes nothing;
* (the counters after warm-up are pinned in ``tests/bench/test_regressions.py``).
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import build_university_database, connect, execute_naive
from repro.engine.collection import CollectionPhase, DerivedEvaluator, ExtendedRangeEmptyError
from repro.errors import DuplicateKeyError
from repro.relational.mvcc import ValueListMemo, version_token
from repro.workloads.queries import parameterized_queries

QUERIES = parameterized_queries()
#: What the bindings rotate over; nobody published in 1901, so that year
#: empties the restricted range of ``p`` (the Strategy 3 runtime fallback).
VALUES = {
    "status": ("student", "technician", "assistant", "professor"),
    "year": (1975, 1977, 1982, 1901),
    "level": ("freshman", "sophomore", "junior", "senior"),
}
WRITTEN = ("papers", "timetable", "courses")
INDEXABLE = (("timetable", "tenr"), ("papers", "pyear"), ("courses", "cnr"))


def written_out(text: str, binding: dict) -> str:
    """``text`` with its ``$names`` replaced by ``binding``'s constants."""
    for name, value in binding.items():
        text = text.replace(f"${name}", str(value))
    return text


def binding_for(text: str, picks: dict) -> dict:
    return {name: value for name, value in picks.items() if f"${name}" in text}


def fresh_evaluator(predicate, source, options) -> DerivedEvaluator:
    inner = {p: fresh_evaluator(p, source, options) for p in predicate.inner_derived}
    return DerivedEvaluator(predicate, source, inner, options)


def contents(evaluator: DerivedEvaluator) -> tuple:
    """Everything an evaluator decides with."""
    values = evaluator._value_list
    return (
        evaluator.predicate,
        evaluator.restricted_count,
        evaluator.stored_size(),
        evaluator._all_constraints_hold,
        None if values is None else values.values,
        sorted(evaluator._tuples, key=repr),
    )


picks = st.fixed_dictionaries({name: st.sampled_from(values) for name, values in VALUES.items()})
queries = st.sampled_from(sorted(QUERIES))


class ValueListMemoMachine(RuleBasedStateMachine):
    """Interleaves writers, pins, DDL and readers over one small university."""

    def __init__(self) -> None:
        super().__init__()
        self.database = build_university_database(scale=1)
        self.connection = connect(self.database)
        self.session = self.connection.session()
        self.pins: list = []
        self.serial = self.steps = 0

    def teardown(self) -> None:
        for pin, _ in self.pins:
            pin.release()
        self.connection.close()

    # -- writers -----------------------------------------------------------------------

    @precondition(lambda self: not self.session.in_transaction)
    @rule()
    def begin(self) -> None:
        self.session.begin()

    @precondition(lambda self: self.session.in_transaction)
    @rule(keep=st.booleans())
    def end(self, keep: bool) -> None:
        if keep:
            self.session.commit()
        else:
            self.session.rollback()

    @rule(name=st.sampled_from(WRITTEN), pick=st.integers(0, 50), values=picks)
    def insert(self, name: str, pick: int, values: dict) -> None:
        self.serial += 1
        employees = self.database.relation("employees").elements()
        courses = self.database.relation("courses").elements()
        enr = employees[pick % len(employees)]["enr"]
        year = values["year"] if values["year"] != 1901 else 1980
        if name == "papers":
            row = {"penr": enr, "pyear": year, "ptitle": f"Paper {self.serial}"}
        elif name == "courses":
            row = {"cnr": 500 + self.serial, "clevel": values["level"],
                   "ctitle": f"Course {self.serial}"}
        else:
            cnr = courses[pick % len(courses)]["cnr"] if courses else 1
            row = {"tenr": enr, "tcnr": cnr, "tday": "monday", "ttime": 9001000, "troom": "R1"}
        try:
            self.database.relation(name).insert(row)
        except DuplicateKeyError:
            pass  # the generated timetable already holds another entry at that slot

    @rule(name=st.sampled_from(WRITTEN), pick=st.integers(0, 50))
    def delete(self, name: str, pick: int) -> None:
        relation = self.database.relation(name)
        elements = relation.elements()
        if elements:
            relation.delete_key(elements[pick % len(elements)].key)

    # -- DDL ---------------------------------------------------------------------------

    @precondition(lambda self: not self.session.in_transaction)
    @rule(name=st.sampled_from(WRITTEN), keep_every=st.integers(1, 3))
    def drop_and_recreate(self, name: str, keep_every: int) -> None:
        """A successor relation under the old name starts its versions over."""
        old = self.database.relation(name)
        rows = [record.as_dict() for record in old.elements()][::keep_every]
        fields = [(field.name, field.type) for field in old.schema.fields]
        self.database.drop_relation(name)
        self.database.create_relation(name, fields, key=old.schema.key, elements=rows)

    @rule(index=st.sampled_from(INDEXABLE), create=st.booleans())
    def index_ddl(self, index: tuple, create: bool) -> None:
        if create:
            self.database.create_index(*index)
        else:
            self.database.drop_index(*index)

    # -- pins --------------------------------------------------------------------------

    @rule()
    def pin(self) -> None:
        if len(self.pins) == 3:
            self.pins.pop(0)[0].release()
        pin = self.database.pin_snapshot()
        self.pins.append((pin, {r.name: r.to_set() for r in pin.relations()}))

    # -- readers: every read equals the naive interpreter at the reader's state ----------

    @rule(name=queries, values=picks)
    def read_in_the_session(self, name: str, values: dict) -> None:
        text = QUERIES[name][0]
        binding = binding_for(text, values)
        cursor = self.session.cursor().execute(text, binding)
        cursor.fetchall()
        assert cursor.result.relation == execute_naive(self.database, written_out(text, binding))

    @rule(name=queries, values=picks)
    def read_pinned(self, name: str, values: dict) -> None:
        text = QUERIES[name][0]
        binding = binding_for(text, values)
        cursor = self.connection.cursor().execute(text, binding)
        cursor.fetchall()
        with self.database.pin_snapshot() as committed:
            assert cursor.result.relation == execute_naive(committed, written_out(text, binding))

    @precondition(lambda self: self.pins)
    @rule(which=st.integers(0, 2), name=queries, values=picks)
    def read_held_pin(self, which: int, name: str, values: dict) -> None:
        pin, _ = self.pins[which % len(self.pins)]
        text = QUERIES[name][0]
        binding = binding_for(text, values)
        handle = self.connection.service.prepare(text, source=pin)
        result = handle.start(binding, source=pin, drain=True)
        assert result.relation == execute_naive(pin, written_out(text, binding))
        result.close()

    # -- invariants --------------------------------------------------------------------

    @invariant()
    def the_library_bindings_read_the_naive_answers(self) -> None:
        """After every step, so each list is asked for on both sides of each write."""
        self.steps += 1
        cursor = self.connection.cursor()
        with self.database.pin_snapshot() as committed:
            for text, bindings in QUERIES.values():
                binding = bindings[self.steps % len(bindings)]
                cursor.execute(text, binding).fetchall()
                assert cursor.result.relation == execute_naive(
                    committed, written_out(text, binding)
                ), (text, binding)

    @invariant()
    def reachable_entries_equal_a_fresh_build(self) -> None:
        memo = self.database.value_lists
        assert len(memo) <= ValueListMemo.CAPACITY
        with self.database.pin_snapshot() as committed:
            sources = [committed] + [pin for pin, _ in self.pins]
            if not self.database.in_transaction:
                sources.append(self.database)
            for predicate, (token, evaluator) in list(memo._entries.items()):
                for source in sources:
                    if all(source.has_relation(n) for n in predicate.relations_read()) and (
                        version_token(source, predicate.relations_read()) == token
                    ):
                        rebuilt = fresh_evaluator(predicate, source, self.connection.options)
                        assert contents(rebuilt) == contents(evaluator), (predicate, token)
        # An entry no source above matches is unreachable: versions only grow.

    @invariant()
    def pins_hold_what_they_held(self) -> None:
        assert self.database._snapshots.active == len(self.pins)
        for pin, held in self.pins:
            assert {r.name: r.to_set() for r in pin.relations()} == held


ValueListMemoMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestValueListMemoMachine = ValueListMemoMachine.TestCase


# ---------------------------------------------------------------- concurrent pinned readers


def test_eight_pinned_readers_share_entries_beside_a_committing_writer():
    database = build_university_database(scale=2)
    connection = connect(database)
    text = QUERIES["running_query"][0]
    statuses = VALUES["status"]
    errors: list[BaseException] = []
    counts = {"built": 0, "reused": 0}
    tally = threading.Lock()
    stop = threading.Event()
    start = threading.Barrier(9)

    def reader(slot: int) -> None:
        try:
            start.wait(timeout=30)
            cursor = connection.cursor()
            for step in range(24):
                binding = {"status": statuses[(slot + step) % 4], "year": 1977, "level": "junior"}
                # Its own pin is the reader's version: the oracle reads that.
                with database.pin_snapshot() as pin:
                    handle = connection.service.prepare(text, source=pin)
                    result = handle.start(binding, source=pin, drain=True)
                    assert result.relation == execute_naive(pin, written_out(text, binding))
                    stamp = result.statistics
                    with tally:  # += on a shared dict is no atomic step
                        counts["built"] += stamp["value_lists_built"]
                        counts["reused"] += stamp["value_lists_reused"]
                    result.close()
                assert cursor.execute(text, binding).fetchall() is not None
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def writer() -> None:
        try:
            start.wait(timeout=30)
            papers = database.relation("papers")
            session = connection.session()
            number = 0
            while not stop.is_set():
                number += 1
                with session:
                    papers.insert({"penr": 1 + number % 16, "pyear": 1977, "ptitle": f"W{number}"})
                    if number % 3 == 0:
                        papers.delete_key(papers.elements()[0].key)
                stop.wait(0.002)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads[:-1]:
            thread.join(timeout=120)
        stop.set()
        threads[-1].join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # Three lists per collection run (a repeated binding at unchanged versions
    # is served above, by the whole-result memo, and runs none).  ``timetable``
    # and ``courses`` never change: beyond racing first builds (at most one
    # per reader and list) their lists are only ever reused.
    runs, odd = divmod(counts["built"] + counts["reused"], 3)
    assert odd == 0 and runs > 8, counts
    assert counts["reused"] >= 2 * runs - 16, counts
    assert database._snapshots.active == 0
    connection.close()


# ---------------------------------------------------------------- the empty restricted range


def test_an_empty_restricted_range_falls_back_on_every_execution(figure1):
    connection = connect(figure1)
    text, binding = QUERIES["no_papers_in_year"][0], {"year": 1901}
    expected = execute_naive(figure1, written_out(text, binding))
    for source_cursor in (connection.cursor, connection.session().cursor):
        outcomes = []
        for _ in range(2):
            cursor = source_cursor().execute(text, binding)
            cursor.fetchall()
            assert cursor.result.relation == expected
            outcomes.append(
                (cursor.result.used_strategy3_fallback, cursor.statistics["value_lists_built"])
            )
        assert outcomes[0] == outcomes[1] and outcomes[0][0] is True, outcomes

    plan = connection.prepare(text).bind(binding)
    (empty,) = plan.derived_predicates()
    for _ in range(2):
        with pytest.raises(ExtendedRangeEmptyError):
            CollectionPhase(plan, figure1, plan.options).run()
    assert empty not in figure1.value_lists._entries
    connection.close()


def test_uncommitted_contents_are_read_but_never_published(figure1):
    connection = connect(figure1)
    text, binding = QUERIES["teaches_at_level"][0], {"level": "senior"}
    session = connection.session()
    session.begin()
    figure1.relation("timetable").clear()
    cursor = session.cursor().execute(text, binding)
    assert cursor.fetchall() == [] and len(figure1.value_lists) == 0
    # A pin beside the open transaction publishes the committed lists ...
    pinned = connection.cursor().execute(text, binding)
    assert pinned.fetchall() and pinned.statistics["value_lists_built"] == 2
    session.rollback()
    # ... which the rolled-back relation, at a version of its own, rebuilds.
    again = connection.cursor().execute(text, binding)
    again.fetchall()
    assert again.result.relation == pinned.result.relation
    assert (again.statistics["value_lists_built"], again.statistics["value_lists_reused"]) == (1, 1)
    connection.close()


# ---------------------------------------------------------------- observability


def test_explain_analyze_says_built_then_reused(figure1):
    from repro import QueryEngine
    from repro.workloads.queries import EXAMPLE_21_TEXT

    engine = QueryEngine(figure1)
    first, second = (engine.explain(EXAMPLE_21_TEXT, analyze=True) for _ in range(2))
    assert first.count("value list built from ") == 3 and "reused" not in first
    assert second.count("value list reused @ versions (") == 3
    assert "SOME t IN timetable" in second and "(timetable=10, courses=6)" in second
    assert "value lists:" not in engine.explain(EXAMPLE_21_TEXT)  # static: nothing ran
