"""A drained pipeline leaves the cyclic collector asleep.

A drain pulls full chunks (``CHUNK_ROWS`` rows) through every stage.  A
kernel suspended at its ``yield`` that still held the chunk it read and
the one it yielded kept about two chunks of fresh tuples alive per stage:
under ``well_cited_venues``' division that outnumbers CPython's free list
of 2-tuples, and generation 0 was collected on every drained execution.
The kernels drop ``chunk`` before the yield and ``out`` after it.

Counted with ``gc.callbacks`` over 100 drained executions whose collection
result is served (by the handle's memo behind a cursor, or handed to the
engine door): what is left allocating is the pipeline alone.  An execution
that collects afresh builds enough structures to wake generation 0 by
itself, so ``QueryEngine.run`` is measured through ``execute_plan`` with a
collection result supplied — the same drain.
"""

from __future__ import annotations

import gc

import pytest

from repro import QueryEngine, connect
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import WELL_CITED_VENUES_TEXT

EXECUTIONS = 100


@pytest.fixture(scope="module")
def bibliography():
    return build_bibliography_database(scale=4, seed=1982)


def young_collections(execute) -> int:
    """Generation-0 collections started while ``execute`` runs ``EXECUTIONS`` times."""
    started = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            started.append(1)

    execute()
    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(EXECUTIONS):
            execute()
    finally:
        gc.callbacks.remove(count)
    return len(started)


def test_a_cursor_fetchall_without_a_fetchone(bibliography):
    with connect(bibliography) as connection:
        cursor = connection.cursor()
        for _ in range(2):  # the collection memo stores on the second sighting
            cursor.execute(WELL_CITED_VENUES_TEXT).fetchall()
        assert young_collections(
            lambda: cursor.execute(WELL_CITED_VENUES_TEXT).fetchall()
        ) < 10


def test_the_engine_door_drain(bibliography):
    engine = QueryEngine(bibliography)
    plan = engine.prepare(WELL_CITED_VENUES_TEXT)
    collected: list = []
    expected = engine.execute_plan(plan, collection_sink=collected.append).drain().relation
    collection = collected[0]

    def drain():
        result = engine.execute_plan(plan, collection=collection).drain()
        assert result.relation == expected

    assert young_collections(drain) < 10
