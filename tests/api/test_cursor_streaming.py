"""Acceptance: cursor fetches stream — no full-result materialization up front.

The contract of the connection redesign: ``fetchone()`` on a fresh cursor
returns after *one* construction dereference, with the combination pipeline
suspended mid-flight.  ``CombinationResult.tuples`` (rows recorded as the
pipeline drains), ``rows_streamed`` (operator throughput) and
``peak_tuples`` (the ``LiveTupleTracker`` high-water mark of breaker state)
make the laziness measurable, and the fetched rows must be byte-identical to
the legacy materialising path.
"""

from __future__ import annotations

import pytest

from repro import QueryEngine, StrategyOptions, connect
from repro.errors import ConnectionClosedError
from repro.workloads.queries import OTHERS_PUBLISHED_1977_TEXT, PROFESSORS_TEXT
from repro.workloads.university import build_university_database


@pytest.fixture(scope="module")
def scale4():
    return build_university_database(scale=4)


class TestStreamingIsReal:
    """The ISSUE 5 acceptance criterion, on ``others_published_1977`` at scale 4."""

    def test_fetchone_does_not_materialize_the_full_result(self, scale4):
        engine = QueryEngine(scale4)
        legacy = engine.run(OTHERS_PUBLISHED_1977_TEXT)
        full_size = len(legacy.relation)
        full_streamed = legacy.statistics["rows_streamed"]
        assert full_size > 1

        connection = connect(scale4)
        cursor = connection.cursor()
        cursor.execute(OTHERS_PUBLISHED_1977_TEXT)
        first = cursor.fetchone()
        assert first is not None
        result = cursor.result
        # The pipeline has recorded only the prefix that was dereferenced so
        # far — not the full free-variable tuple set.
        assert len(result.combination.tuples) < full_size
        assert len(result.relation) < full_size
        # Operator throughput confirms it: closing flushes each operator's
        # row count, and far fewer rows crossed the pipeline than a complete
        # drain pushes through.  The cursor's private counters attribute the
        # rows to exactly this execution (the shared tracker accumulates
        # across executions and is no longer reset on the snapshot path).
        cursor.close()
        partial_streamed = cursor.statistics["rows_streamed"]
        assert 0 < partial_streamed < full_streamed

    def test_peak_is_breaker_state_only(self, scale4):
        """After a full cursor drain the LiveTupleTracker high-water mark
        matches the streamed plan's, far below the literal plan's peak."""
        materialized = QueryEngine(
            scale4, StrategyOptions().with_(plan="literal")
        ).run(OTHERS_PUBLISHED_1977_TEXT)
        cursor = connect(scale4).execute(OTHERS_PUBLISHED_1977_TEXT)
        cursor.fetchall()
        streamed_peak = cursor.result.combination.peak_tuples
        assert streamed_peak < materialized.combination.peak_tuples
        assert streamed_peak <= len(materialized.relation) + 1

    def test_fetchmany_totals_byte_identical_to_legacy_rows(self, scale4):
        legacy = QueryEngine(scale4).run(OTHERS_PUBLISHED_1977_TEXT)
        cursor = connect(scale4).execute(OTHERS_PUBLISHED_1977_TEXT)
        fetched = []
        while True:
            batch = cursor.fetchmany(7)
            if not batch:
                break
            fetched.extend(batch)
        assert [r.values for r in fetched] == [r.values for r in legacy.rows]
        assert cursor.rowcount == len(legacy.rows)

    def test_iteration_matches_fetchall(self, scale4):
        connection = connect(scale4)
        via_iter = [r.values for r in connection.execute(OTHERS_PUBLISHED_1977_TEXT)]
        via_fetchall = [
            r.values
            for r in connection.execute(OTHERS_PUBLISHED_1977_TEXT).fetchall()
        ]
        assert via_iter == via_fetchall


class TestCursorLifecycle:
    def test_result_relation_fills_as_cursor_drains(self, figure1):
        # others_published_1977 streams (PROFESSORS_TEXT collapses to the
        # constant-matrix shortcut, which cannot defer construction).
        cursor = connect(figure1).execute(OTHERS_PUBLISHED_1977_TEXT)
        assert len(cursor.result.relation) == 0
        first = cursor.fetchone()
        assert first is not None
        assert len(cursor.result.relation) == 1
        cursor.fetchall()
        assert len(cursor.result.relation) == cursor.rowcount

    def test_close_mid_stream_releases_its_pin(self, scale4):
        connection = connect(scale4)
        cursor = connection.execute(OTHERS_PUBLISHED_1977_TEXT)
        assert cursor.fetchone() is not None
        assert scale4._snapshots.active == 1
        cursor.close()
        assert scale4._snapshots.active == 0

    def test_statistics_snapshot_finalises_on_exhaustion(self, figure1):
        cursor = connect(figure1).execute(PROFESSORS_TEXT)
        live = cursor.statistics
        assert isinstance(live, dict)
        cursor.fetchall()
        final = cursor.statistics
        assert final["relations"]["employees"]["scans"] >= 1
        assert final is cursor.result.statistics

    def test_a_pending_snapshot_cursor_counts_live(self):
        """While rows are pending, a pinned cursor shows its own counters as
        they stand — what a session cursor at the same point shows — not a
        stamp taken at ``execute``; once exhausted, the result's stamp."""
        database = build_university_database(scale=40)
        database.create_index("papers", "pyear", operator="<=")
        text = "[<p.ptitle, p.penr, p.pyear> OF EACH p IN papers: (p.pyear <= $year)]"
        connection = connect(database)
        for _ in range(3):  # scan, build the view, probe it: warm
            connection.cursor().execute(text, {"year": 1975}).fetchall()
        pinned = connection.cursor().execute(text, {"year": 1975})
        live = connection.session().cursor().execute(text, {"year": 1975})
        assert len(pinned.fetchmany(100)) == len(live.fetchmany(100)) == 100
        papers = pinned.statistics["relations"]["papers"]
        assert papers == live.statistics["relations"]["papers"]
        assert (papers["index_probes"], papers["elements_read"]) == (1, 1 + 2 + 4 + 8 + 16 + 32 + 64)
        rows = pinned.fetchall()
        final = pinned.statistics
        assert final is pinned.result.statistics
        assert final["relations"]["papers"]["elements_read"] == 100 + len(rows)
        connection.close()

    @pytest.mark.parametrize("status", ["student", "technician"])
    def test_a_pinned_scan_charges_what_its_pulled_chunks_read(self, scale4, status):
        """A scan on a pin is charged a chunk of source elements at a time, as
        each is pulled — the ones the restriction rejects included — so a
        cursor that stops early pays for what it read, not for the relation.
        (At scale 4 the first student is the first element, the first
        technician the fourth: the third chunk.)"""
        text = f"[<e.ename> OF EACH e IN employees: (e.estatus = {status})]"
        employees = scale4.relation("employees")
        first = [r.estatus.label for r in employees.elements()].index(status)
        consumed, size = 0, 1  # the ramp: chunks of 1, 2, 4, ... elements
        while consumed <= first:
            consumed, size = consumed + size, size * 2
        assert consumed < len(employees)
        connection = connect(scale4)
        cursor = connection.cursor().execute(text)
        assert cursor.fetchone() is not None
        read = cursor.statistics["relations"]["employees"]
        assert (read["scans"], read["elements_read"]) == (1, consumed)
        cursor.fetchall()
        assert cursor.statistics["relations"]["employees"]["elements_read"] == len(employees)
        connection.close()

    def test_statistics_survive_close_and_later_executions(self, figure1):
        """A closed cursor keeps ITS final snapshot, not the live counters
        of whatever ran afterwards on the connection."""
        connection = connect(figure1)
        cursor = connection.execute(OTHERS_PUBLISHED_1977_TEXT)
        assert cursor.fetchone() is not None
        cursor.close()
        frozen = cursor.statistics
        assert frozen["relations"]  # this cursor's own reads
        connection.execute(PROFESSORS_TEXT).fetchall()  # interleaved activity
        assert cursor.statistics is frozen

    def test_nonstreaming_options_still_fetch(self, figure1):
        connection = connect(figure1, options=StrategyOptions.none())
        cursor = connection.execute(PROFESSORS_TEXT)
        rows = cursor.fetchall()
        assert rows
        streaming_rows = connect(figure1).execute(PROFESSORS_TEXT).fetchall()
        assert sorted(r.values for r in rows) == sorted(
            r.values for r in streaming_rows
        )

    def test_fetchone_returns_none_after_exhaustion(self, figure1):
        cursor = connect(figure1).execute(PROFESSORS_TEXT)
        cursor.fetchall()
        assert cursor.fetchone() is None
        assert cursor.fetchmany(3) == []

    def test_fetches_fail_on_closed_connection(self, figure1):
        connection = connect(figure1)
        cursor = connection.execute(PROFESSORS_TEXT)
        connection.close()
        with pytest.raises(ConnectionClosedError):
            cursor.fetchone()


class TestQueryResultSequence:
    """Satellite: QueryResult.rows aliasing fix + sequence protocol."""

    def test_rows_is_a_defensive_copy(self, figure1):
        engine = QueryEngine(figure1)
        result = engine.run(PROFESSORS_TEXT)
        size = len(result.relation)
        rows = result.rows
        rows.clear()
        rows.append("junk")
        assert len(result.relation) == size
        assert result.rows != rows
        assert all(hasattr(r, "values") for r in result.rows)

    def test_result_is_a_sequence(self, figure1):
        engine = QueryEngine(figure1)
        result = engine.run(PROFESSORS_TEXT)
        assert list(result) == result.rows
        assert result[0] == result.rows[0]
        assert result[-1] == result.rows[-1]
        assert result[0:2] == result.rows[0:2]
        assert len(result) == len(result.rows)


class TestStreamAndCursorShutdown:
    """ISSUE 6 satellite: lifecycle edges of cursors and their row streams."""

    def test_closed_cursor_raises_cursor_error_on_every_fetch(self, figure1):
        from repro.errors import CursorError

        connection = connect(figure1)
        cursor = connection.execute(PROFESSORS_TEXT)
        cursor.fetchone()
        cursor.close()
        for fetch in (cursor.fetchone, cursor.fetchmany, cursor.fetchall):
            with pytest.raises(CursorError):
                fetch()
        with pytest.raises(CursorError):
            cursor.execute(PROFESSORS_TEXT)

    def test_double_rowstream_close_is_idempotent(self, figure1):
        from repro.engine.stream import RowStream

        stream = RowStream.from_relation(figure1.relation("employees"))
        iterator = iter(stream)
        next(iterator)  # pipeline in flight
        stream.close()
        stream.close()  # second close must be a no-op
        assert stream.consumed

    def test_closing_an_untouched_stream_is_a_noop(self, figure1):
        from repro.engine.stream import RowStream

        stream = RowStream.from_relation(figure1.relation("employees"))
        stream.close()
        stream.close()
        assert stream.consumed

    def test_connection_close_with_open_streaming_cursor(self, figure1):
        # A connection closed mid-stream must leave the cursor closable and
        # its statistics snapshot intact (the counters the partial drain
        # charged), not raise from the pipeline's finalizers.
        connection = connect(figure1)
        cursor = connection.execute(PROFESSORS_TEXT)
        cursor.fetchone()
        connection.close()
        cursor.close()
        cursor.close()
        snapshot = cursor.statistics
        assert isinstance(snapshot, dict)
        assert "rows_streamed" in snapshot


class TestFetchmanySizes:
    """Satellite bugfix: fetchmany(0) returned arraysize rows, not []."""

    def test_fetchmany_zero_returns_empty_without_advancing(self, figure1):
        cursor = connect(figure1).execute(PROFESSORS_TEXT)
        assert cursor.fetchmany(0) == []
        # The pipeline did not advance: the full result is still fetchable.
        baseline = connect(figure1).execute(PROFESSORS_TEXT).fetchall()
        assert [r.values for r in cursor.fetchall()] == [
            r.values for r in baseline
        ]

    def test_fetchmany_negative_raises_cursor_error(self, figure1):
        from repro.errors import CursorError

        cursor = connect(figure1).execute(PROFESSORS_TEXT)
        with pytest.raises(CursorError, match="non-negative"):
            cursor.fetchmany(-1)
        with pytest.raises(CursorError, match="-5"):
            cursor.fetchmany(-5)
        # A rejected size leaves the result set intact.
        assert cursor.fetchall()

    def test_fetchmany_none_uses_arraysize(self, figure1):
        everyone = "[<e.enr> OF EACH e IN employees: (e.enr >= 1)]"
        cursor = connect(figure1).execute(everyone)
        cursor.arraysize = 3
        assert len(cursor.fetchmany(None)) == 3
        cursor.arraysize = 2
        assert len(cursor.fetchmany()) == 2
