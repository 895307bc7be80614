"""A service pin's tracker is the stamp, rendered when it is first read.

``QueryService.start`` takes a pin for one execution, and that pin is used by
nothing else. When the rows end, the result keeps the pin's tracker. Its
``statistics`` are rendered from the tracker on first read and not copied
when the rows end. The checks:

* for every query of both libraries and each way a cursor's rows can end,
  ``cursor.statistics`` equals an eager ``as_dict()`` taken when the rows
  ended;
* a caller-held pin whose tracker is reset after its rows end keeps the
  counts stamped at the end (its caller may reuse or reset the tracker);
* the database's counters are the sum of the cursors' stamps;
* the cursor lets its ended result go when the next ``execute`` starts,
  and a closed cursor keeps only the stamp its ``statistics`` return.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import connect, execute_naive
from repro.workloads.bibliography import BibliographyProfile, build_bibliography_database
from repro.workloads.bibliography.queries import (
    bibliography_named_queries,
    bibliography_parameterized_queries,
)
from repro.workloads.queries import all_named_queries, parameterized_queries
from repro.workloads.university import build_university_database

_DATABASES: dict = {}


def _database(library: str):
    if library not in _DATABASES:
        _DATABASES[library] = (
            build_university_database(scale=2)
            if library == "university"
            else build_bibliography_database(
                profile=BibliographyProfile(authors=12, venues=3, papers=8, out_degrees=(2, 3))
            )
        )
    return _DATABASES[library]


def _cases(library: str, named, parameterized) -> list[tuple]:
    cases = [(library, query, None) for query in named.values()]
    cases += [
        (library, text, binding) for text, bindings in parameterized.values() for binding in bindings
    ]
    return cases


CASES = _cases("university", all_named_queries(), parameterized_queries()) + _cases(
    "bibliography", bibliography_named_queries(), bibliography_parameterized_queries()
)


def _end(cursor, ending: str) -> None:
    if ending == "fetchall":
        cursor.fetchall()
    elif ending == "fetchone":
        cursor.fetchone()
        cursor.close()
    else:
        cursor.fetchmany(2)
        cursor.close()


@pytest.mark.parametrize("library, query, binding", CASES)
def test_the_rendered_stamp_equals_the_eager_one(library, query, binding):
    with connect(_database(library)) as connection:
        for ending in ("fetchall", "fetchone", "fetchmany"):
            cursor = connection.cursor().execute(query, binding)
            result, eager = cursor.result, []
            # Runs after the engine's stamp and the pin's release: the rows' end.
            result.on_close(lambda: eager.append(result.tracker.as_dict()))
            _end(cursor, ending)
            if ending == "fetchall":  # a close keeps the rendered stamp only
                assert result._statistics is None, "rendered before it was read"
            # Another execution in between touches nothing this stamp renders.
            connection.cursor().execute(query, binding).fetchall()
            assert cursor.statistics == eager[0] == result.statistics, ending
            assert eager[0]["relations"] or eager[0]["plan_cache_hits"] + eager[0]["plan_cache_misses"]


def test_a_caller_held_pin_keeps_the_counts_stamped_when_its_rows_end():
    database = _database("university")
    text, bindings = parameterized_queries()["running_query"]
    service = connect(database).service
    with database.pin_snapshot() as pin:
        handle = service.prepare(text, source=pin)
        result = handle.start(bindings[0], pin, drain=True)
        expected = pin.statistics.as_dict()
        assert expected["relations"]
        # The oracle resets the pin's tracker; the stamp was taken before.
        assert result.relation == execute_naive(pin, result.prepared.selection)
        assert pin.statistics.as_dict() != expected
        assert result.statistics == expected


def test_the_database_counters_are_the_sum_of_the_stamps():
    database = build_university_database(scale=2)
    database.reset_statistics()
    stamps = []
    with connect(database) as connection:
        for _, query, binding in _cases("university", all_named_queries(), parameterized_queries()):
            for ending in ("fetchall", "fetchone"):
                cursor = connection.cursor().execute(query, binding)
                _end(cursor, ending)
                stamps.append(cursor.statistics)
    total = database.statistics.as_dict()
    assert total == _sum(stamps)
    assert total["relations"]["employees"]["elements_read"] > 0


def test_the_next_execute_lets_the_ended_result_go():
    """The next ``execute`` frees the last result before it allocates: an
    execution beside the last one's result makes the cyclic collector run
    more often and promote it."""
    gc.disable()
    try:
        with connect(_database("university")) as connection:
            cursor = connection.cursor()
            for text, bindings in parameterized_queries().values():
                cursor.execute(text, bindings[0]).fetchmany(1)
                ended = weakref.ref(cursor.result)
                cursor.execute(text, bindings[-1])
                assert ended() is None, text
    finally:
        gc.enable()


@pytest.mark.parametrize("closing", ["cursor", "connection"])
def test_a_closed_cursor_frees_its_result_and_keeps_its_stamp(closing):
    gc.disable()
    try:
        connection = connect(_database("university"))
        for text, bindings in parameterized_queries().values():
            cursor = connection.cursor().execute(text, bindings[0])
            cursor.fetchmany(2)
            result, tracker, eager = cursor.result, cursor.result.tracker, []
            result.on_close(lambda: eager.append(tracker.as_dict()))
            ended = weakref.ref(result)
            del result
            (cursor if closing == "cursor" else connection).close()
            assert ended() is None, text
            assert cursor.statistics == eager[0], text
            if closing == "connection":
                connection = connect(_database("university"))
        connection.close()
    finally:
        gc.enable()


def _sum(stamps: list[dict]) -> dict:
    """Counters added up key by key, nested dicts included."""
    total: dict = {}
    for stamp in stamps:
        for name, value in stamp.items():
            if isinstance(value, dict):
                total[name] = _sum([total.get(name, {}), value])
            else:
                total[name] = total.get(name, 0) + value
    return total
