"""Chunks sized by demand: the ramp for a consumer that fetches a few rows,
full chunks for one that asks for every row.

A source cuts 1, 2, 4, ... ``CHUNK_ROWS`` rows while its execution's
:class:`~repro.engine.stream.Demand` cell is not full; ``fetchall``, a drain
(``QueryEngine.run``, ``execute_batch``, ``executemany``) set the cell, and
the sources cut ``CHUNK_ROWS`` rows from their next step on — also those
under a division.  The cell is one execution's: a neighbour's drain on the
same handle changes no other cursor's prefix or counters.
"""

from __future__ import annotations

import math

import pytest

import repro.engine.access as access_module
import repro.engine.stream as stream_module
from repro import QueryEngine, StrategyOptions, connect
from repro.engine.stream import CHUNK_ROWS
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT, WELL_CITED_VENUES_TEXT
from repro.workloads.queries import all_named_queries
from repro.workloads.university import build_university_database

#: Strategy 1 and the streamed plan: ALL stays a division of the combination phase.
S1_STREAMED = StrategyOptions.only(parallel_collection=True, plan="streamed")

QUERIES = all_named_queries()


@pytest.fixture(scope="module")
def scale4():
    return build_university_database(scale=4)


@pytest.fixture(scope="module")
def bibliography():
    return build_bibliography_database(scale=4, seed=1982)


def counted(cursor) -> list[int]:
    """Count the chunks ``cursor`` pulls from its result from here on."""
    pulls = [0]
    chunks = cursor._rows

    def counting():
        for chunk in chunks:
            pulls[0] += 1
            yield chunk

    cursor._rows = counting()
    return pulls


@pytest.fixture
def first_chunks(monkeypatch):
    """``[(rows, sizes)]`` per ramped source cut from here on: the rows it was
    handed and the sizes of the chunks it cut."""
    calls: list[tuple[object, list[int]]] = []
    original = stream_module.ramped

    def spy(rows, *demand):
        sizes: list[int] = []
        calls.append((rows, sizes))
        chunks = original(rows, *demand)
        try:
            for chunk in chunks:
                sizes.append(len(chunk))
                yield chunk
        finally:
            chunks.close()

    monkeypatch.setattr(stream_module, "ramped", spy)
    monkeypatch.setattr(access_module, "ramped", spy)  # a scan's
    return calls


def _sources(result) -> list[list]:
    """The row lists the combination phase's conjunction chains scan."""
    plan = result.collection.combination_plan
    return [c.source.rows for c in plan.conjunctions if c is not None and not c.empty]


class TestFetchallPullsFullChunks:
    @pytest.mark.parametrize("name", [
        "professors", "teaches_low_level", "no_1977_papers", "publishing_teachers",
    ])
    def test_fetchall_after_fetchone_pulls_full_chunks(self, scale4, name):
        cursor = connect(scale4).cursor().execute(QUERIES[name])
        pulls = counted(cursor)
        assert cursor.fetchone() is not None
        before = pulls[0]
        n = 1 + len(cursor.fetchall())
        assert n >= 8  # long enough that the ramp takes more chunks than that
        assert pulls[0] - before <= 1 + math.ceil((n - 1) / CHUNK_ROWS)

    def test_a_scan_selection_and_a_join_at_the_bibliography(self, bibliography):
        for text in (COAUTHOR_PAIRS_TEXT, "[<a.aname> OF EACH a IN authors: (a.anr >= 1)]"):
            cursor = connect(bibliography).cursor().execute(text)
            pulls = counted(cursor)
            assert cursor.fetchone() is not None
            before = pulls[0]
            n = 1 + len(cursor.fetchall())
            assert pulls[0] - before <= 1 + math.ceil((n - 1) / CHUNK_ROWS), text

    def test_the_engine_door_drains_in_full_chunks(self, scale4, first_chunks):
        result = QueryEngine(scale4, S1_STREAMED).run(QUERIES["teaches_low_level"])
        sources = _sources(result)
        assert sources and max(map(len, sources)) > 1
        for rows in sources:
            (sizes,) = [sizes for handed, sizes in first_chunks if handed is rows]
            assert sizes[0] == min(CHUNK_ROWS, len(rows))


class TestUnderADivision:
    """A division reads its whole input before its first row leaves, but its
    sources still read the execution's cell: a ``fetchone`` ramps them (full
    1 024-row chunks there would keep more fresh tuples alive than CPython's
    tuple free lists hold and wake the cyclic collector almost every time),
    and a drain cuts them full from the first chunk."""

    CASES = [("scale4", QUERIES["no_1977_papers"]), ("bibliography", WELL_CITED_VENUES_TEXT)]
    IDS = ["no_1977_papers", "well_cited_venues"]

    @pytest.mark.parametrize("database, text", CASES, ids=IDS)
    def test_a_drain_cuts_the_sources_full_from_the_first_chunk(
        self, request, first_chunks, database, text
    ):
        result = QueryEngine(request.getfixturevalue(database), S1_STREAMED).run(text)
        assert any(n.op.startswith("ALL division") for n in result.combination.operator_notes)
        sources = _sources(result)
        assert sources and max(map(len, sources)) > 1
        for rows in sources:
            (sizes,) = [sizes for handed, sizes in first_chunks if handed is rows]
            assert sizes[0] == min(CHUNK_ROWS, len(rows))

    @pytest.mark.parametrize("database, text", CASES, ids=IDS)
    def test_a_fetchone_ramps_the_sources_and_the_emission(
        self, request, first_chunks, database, text
    ):
        cursor = connect(request.getfixturevalue(database), options=S1_STREAMED).execute(text)
        assert cursor.fetchone() is not None
        sources = _sources(cursor.result)
        for rows in sources:
            (sizes,) = [sizes for handed, sizes in first_chunks if handed is rows]
            assert sizes[:2] == [1, 2][: len(sizes)]
        emitted = [sizes for handed, sizes in first_chunks
                   if not any(handed is rows for rows in sources)]
        assert emitted and emitted[-1] == [1]  # one group handed on, the rest still held
        cursor.close()


class TestTheCellIsOneExecutions:
    @pytest.mark.parametrize("status", ["student", "technician"])
    def test_a_neighbours_drain_leaves_a_fetchone_its_prefix(self, scale4, first_chunks, status):
        """Two cursors on one handle and one binding: one drains, the other
        fetches one row and closes.  The drain cuts the rest of its scan in one
        full chunk; the other reads and is charged the ramp's prefix as if it
        were alone (as ``test_a_pinned_scan_charges_what_its_pulled_chunks_read``
        pins: 1 element for student, 7 for technician)."""
        text = f"[<e.ename> OF EACH e IN employees: (e.estatus = {status})]"
        employees = scale4.relation("employees")
        first = [r.estatus.label for r in employees.elements()].index(status)
        prefix = []  # the ramp up to the chunk holding the first match
        while sum(prefix) <= first:
            prefix.append(2 ** len(prefix))
        assert sum(prefix) == {"student": 1, "technician": 7}[status]
        connection = connect(scale4)
        handle = connection.prepare(text)
        draining = connection.cursor().execute(handle)
        fetching = connection.cursor().execute(handle)
        assert draining.fetchone() is not None
        assert fetching.fetchone() is not None
        draining.fetchall()
        fetching.close()
        (_, drained), (_, fetched) = first_chunks
        assert drained == prefix + [len(employees) - sum(prefix)]
        assert fetched == prefix
        read = fetching.statistics["relations"]["employees"]
        assert (read["scans"], read["elements_read"]) == (1, sum(prefix))
        assert draining.statistics["relations"]["employees"]["elements_read"] == len(employees)
        connection.close()
