"""INDEX PATHS — sub-linear access paths vs. the scan-based collection phase.

The access-path selector (``engine/access.py``) lets a prepared point query
answer from a permanent hash index and a prepared range query answer from
a sorted index — instead of paying one full relation scan per execution.  Because a probe
touches O(matches) elements while a scan touches O(|relation|), the gap to
the scan path must *widen* as the database grows; this benchmark pins that.

Two workloads over an enlarged Figure 1 profile, at scales 1..4:

* ``point``  — ``e.enr = $enr`` via a permanent :class:`HashIndex`
               (the service-layer hot path: plan cached, value late-bound);
* ``sorted`` — ``p.pyear <= $year`` via a permanent :class:`SortedIndex`.

Acceptance (full run; the CI smoke job sets ``BENCH_SMOKE=1`` and only
checks scale 1 for bit-rot):

* indexed point execution reports ``index_probes > 0``;
* results are byte-identical with ``use_index_paths`` on and off;
* the point-query speedup is >= 5x at scale 4 and monotonically increasing
  from scale 1 to scale 4 — through ``service.prepare`` *and* through a
  default ``connect().cursor()``, whose pinned snapshot probes the index
  views (``DatabaseSnapshot.index_for``);
* a narrow range read (the earliest publication year: ~5 % of the papers) is
  >= 2x faster through both doors;
* beside a session that commits to ``employees`` — the indexed relation —
  between every two cursor reads, the indexed door is no slower than the
  scan-only one (a pin is offered a view only once its contents version has
  outlived a read, so nothing is built there), and with a commit every eight
  reads it is >= 2x faster.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import StrategyOptions, connect
from repro.bench.report import print_report
from repro.workloads.university import UniversityProfile, build_university_database

#: Set by the CI benchmark-smoke job: run the harness at scale 1 only and
#: skip the cross-scale acceptance assertions (full scales stay manual).
BENCH_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

SCALES = (1,) if BENCH_SMOKE else (1, 2, 3, 4)

#: An enlarged Figure 1 profile so the scan path has something to lose:
#: scale 4 holds 1000 employees and 480 papers.
PROFILE = UniversityProfile(employees=250, papers=120, courses=160, timetable=150)

POINT_TEXT = "[<e.ename> OF EACH e IN employees : (e.enr = $enr)]"
SORTED_TEXT = "[<p.ptitle> OF EACH p IN papers : (p.pyear <= $year)]"

SCAN_OPTIONS = StrategyOptions().with_(use_index_paths=False)


def _database(scale: int):
    database = build_university_database(scale=scale, profile=PROFILE)
    database.create_index("employees", "enr")            # hash, for "="
    database.create_index("papers", "pyear", operator="<=")  # sorted, for ranges
    return database


def _point_bindings(scale: int) -> list[dict]:
    count = PROFILE.employees * scale
    return [{"enr": enr} for enr in range(1, count + 1, max(count // 40, 1))]


def _assert_identical(prepared_on, prepared_off, bindings) -> None:
    for values in bindings:
        on = prepared_on.execute(values).relation
        off = prepared_off.execute(values).relation
        assert sorted(r.values for r in on) == sorted(r.values for r in off), values


def _latency(prepared, bindings, rounds: int = 3) -> float:
    """Best-of-``rounds`` mean seconds per execution over the binding cycle."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for values in bindings:
            prepared.execute(values)
        best = min(best, (time.perf_counter() - started) / len(bindings))
    return best


class _CursorQuery:
    """One text on a default ``connect().cursor()`` — the door users use —
    shaped like a prepared query for the helpers above."""

    def __init__(self, connection, text: str) -> None:
        self._cursor = connection.cursor()
        self._text = text

    def execute(self, values):
        rows = self._cursor.execute(self._text, values).fetchall()
        result = self._cursor.result  # drained: relation and statistics are final
        assert len(result.relation) == len(rows)
        return result


DOORS = ("prepared", "cursor")


def _through(door: str, database, text: str) -> tuple:
    """``(indexed, scanned)`` executables for ``text`` through ``door``."""
    if door == "prepared":
        service = connect(database).service
        return service.prepare(text), service.prepare(text, SCAN_OPTIONS)
    return (
        _CursorQuery(connect(database), text),
        _CursorQuery(connect(database, options=SCAN_OPTIONS), text),
    )


def _measure_point(scale: int, door: str = "prepared") -> dict:
    database = _database(scale)
    indexed, scanned = _through(door, database, POINT_TEXT)
    bindings = _point_bindings(scale)
    _assert_identical(indexed, scanned, bindings[:8])
    probe_stats = indexed.execute(bindings[0]).statistics
    scan_stats = scanned.execute(bindings[0]).statistics
    return {
        "indexed_s": _latency(indexed, bindings),
        "scan_s": _latency(scanned, bindings),
        "index_probes": probe_stats["index_probes"],
        "probe_elements": probe_stats["relations"]["employees"]["elements_read"],
        "scan_elements": scan_stats["relations"]["employees"]["elements_read"],
    }


class TestPointQuerySpeedup:
    """The headline claim: indexed point lookups pull away from scans."""

    @pytest.mark.parametrize("door", DOORS)
    def test_speedup_at_least_5x_at_scale_4_and_monotonic(self, door):
        if BENCH_SMOKE:
            pytest.skip("cross-scale acceptance needs the full scale sweep")
        attempts: list[dict[int, float]] = []
        for _ in range(3):  # wall-clock ratios are noisy on loaded runners
            speedups = {}
            for scale in SCALES:
                rates = _measure_point(scale, door)
                assert rates["index_probes"] > 0
                speedups[scale] = rates["scan_s"] / rates["indexed_s"]
            attempts.append(speedups)
            ordered = [speedups[s] for s in SCALES]
            if speedups[4] >= 5.0 and ordered == sorted(ordered):
                return
        raise AssertionError(
            f"point-query speedup not >=5x at scale 4 and monotonic in any attempt: {attempts}"
        )

    @pytest.mark.parametrize("door", DOORS)
    def test_probe_touches_only_matching_elements(self, door):
        rates = _measure_point(SCALES[0], door)
        assert rates["index_probes"] > 0
        assert rates["probe_elements"] == 1
        # The scan path reads the whole relation; the probe reads the match.
        assert rates["scan_elements"] == PROFILE.employees * SCALES[0]


def _cursor_latency_beside_a_writer(options, reads_per_commit: int, reads: int = 240) -> float:
    """Mean seconds per point read on a default cursor while a session
    rewrites one ``employees`` element before every ``reads_per_commit``-th read."""
    database = _database(4)
    connection = connect(database) if options is None else connect(database, options=options)
    query = _CursorQuery(connection, POINT_TEXT)
    employees = database.relation("employees")
    moved = next(iter(employees))
    bindings = _point_bindings(4)
    spent = 0.0
    for number in range(reads):
        if number % reads_per_commit == 0:
            with connection.session():
                employees.delete(moved)
                employees.insert(moved)
        values = bindings[number % len(bindings)]
        started = time.perf_counter()
        result = query.execute(values)
        spent += time.perf_counter() - started
        assert len(result.relation) == 1
    connection.close()
    return spent / reads


class TestReadsBesideAWriterOnTheIndexedRelation:
    """The case a read-only benchmark hides: every commit to the indexed
    relation makes the next pin's view a new one."""

    @pytest.mark.parametrize(
        "reads_per_commit, wanted", [(1, 1 / 1.25), (8, 2.0)], ids=["every-read", "every-8th"]
    )
    def test_indexed_door_against_scan_only_door(self, reads_per_commit, wanted):
        if BENCH_SMOKE:
            pytest.skip("the ratios need the scale-4 relation")
        attempts = []
        for _ in range(3):  # wall-clock ratios are noisy on loaded runners
            scanned = _cursor_latency_beside_a_writer(SCAN_OPTIONS, reads_per_commit)
            indexed = _cursor_latency_beside_a_writer(None, reads_per_commit)
            attempts.append(scanned / indexed)
            if attempts[-1] >= wanted:
                print(
                    f"\ncommit every {reads_per_commit} read(s): scan-only "
                    f"{scanned * 1e6:.0f} us, indexed {indexed * 1e6:.0f} us a read"
                )
                return
        raise AssertionError(
            f"indexed/scan-only speedup beside a writer (commit every {reads_per_commit} "
            f"reads) below {wanted:.2f} in every attempt: {attempts}"
        )


class TestSortedIndexRange:
    @pytest.mark.parametrize("door", DOORS)
    def test_range_probe_identical_and_counted(self, door):
        database = _database(SCALES[0])
        indexed, scanned = _through(door, database, SORTED_TEXT)
        bindings = [{"year": y} for y in (1971, 1975, 1977, 1980)]
        _assert_identical(indexed, scanned, bindings)
        stats = indexed.execute(bindings[0]).statistics
        assert stats["index_probes"] > 0
        assert stats["relations"]["papers"]["scans"] == 0

    @pytest.mark.parametrize("door", DOORS)
    def test_narrow_range_at_least_2x_at_scale_4(self, door):
        if BENCH_SMOKE:
            pytest.skip("the speedup needs the scale-4 relation")
        database = _database(4)
        indexed, scanned = _through(door, database, SORTED_TEXT)
        earliest = min(record["pyear"] for record in database.relation("papers"))
        bindings = [{"year": earliest}] * 20
        attempts = []
        for _ in range(3):  # wall-clock ratios are noisy on loaded runners
            attempts.append(_latency(scanned, bindings) / _latency(indexed, bindings))
            if attempts[-1] >= 2.0:
                return
        raise AssertionError(f"narrow range read not >=2x faster in any attempt: {attempts}")


def test_report_index_path_latency():
    """Print the per-scale point-query latency and speedup table."""
    lines = [
        f"{'scale':>7} {'employees':>10} {'scan us':>10} {'probe us':>10} {'speedup':>10}"
    ]
    for scale in SCALES:
        rates = _measure_point(scale)
        lines.append(
            f"{scale:>7} {PROFILE.employees * scale:>10} "
            f"{rates['scan_s'] * 1e6:>10.1f} {rates['indexed_s'] * 1e6:>10.1f} "
            f"{rates['scan_s'] / rates['indexed_s']:>10.2f}"
        )
    print_report("INDEX PATHS — prepared point query, index vs. scan", "\n".join(lines))


def test_timing_indexed_point_query(benchmark):
    """pytest-benchmark timing of one indexed prepared point execution."""
    database = _database(SCALES[0])
    service = connect(database).service
    prepared = service.prepare(POINT_TEXT)
    result = benchmark(lambda: prepared.execute({"enr": 7}))
    assert len(result.relation) == 1
