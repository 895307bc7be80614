"""Benchmark regression pins: PR 1's combination-optimizer wins stay won.

The combination-phase optimizer (cost-ordered joins + semijoin
pre-reduction) cut the peak intermediate n-tuple count on the scale-4
inequality-join workload from 372 to 117.  These tests lock those numbers in
as hard bounds so later refactors — including the service layer's plan
reuse, which runs the same combination phase from cached collection
structures — cannot silently regress them.
"""

from __future__ import annotations

import pytest

from repro import StrategyOptions, build_university_database, connect, execute_naive
from repro.engine.evaluator import QueryEngine
from repro.workloads.queries import OTHERS_PUBLISHED_1977_TEXT

#: The benchmark's configuration: Strategy 1 only, so the dyadic structures
#: actually reach the combination phase (S3/S4 would dissolve them first).
LEGACY = StrategyOptions.only(parallel_collection=True)
OPTIMIZED = LEGACY.with_(join_order="uniform", semijoin_reduction=True)

#: The pinned values (scale 4, ``others_published_1977``).  The peak bound is
#: the number PR 1's benchmark reports; the legacy floor documents the gap.
PEAK_BOUND = 117
LEGACY_PEAK_FLOOR = 372


@pytest.fixture(scope="module")
def scale4():
    return build_university_database(scale=4)


def test_optimizer_peak_tuples_bound(scale4):
    """Peak intermediate n-tuples stay at or below the PR 1 result."""
    result = QueryEngine(scale4, OPTIMIZED).run(OTHERS_PUBLISHED_1977_TEXT)
    assert result.combination is not None
    assert result.combination.peak_tuples <= PEAK_BOUND, result.combination.peak_tuples


def test_semijoin_reduction_actually_reduces(scale4):
    """``reduced_tuples`` is positive whenever the reducer flag is on."""
    result = QueryEngine(scale4, OPTIMIZED).run(OTHERS_PUBLISHED_1977_TEXT)
    assert result.statistics["reduced_tuples"] > 0
    assert result.statistics["reductions"] > 0


def test_reduction_is_off_when_disabled(scale4):
    result = QueryEngine(scale4, LEGACY).run(OTHERS_PUBLISHED_1977_TEXT)
    assert result.statistics["reduced_tuples"] == 0


def test_legacy_gap_is_still_visible(scale4):
    """The legacy configuration still peaks where PR 1 measured it — if this
    shrinks, the benchmark's comparison story needs updating."""
    result = QueryEngine(scale4, LEGACY).run(OTHERS_PUBLISHED_1977_TEXT)
    assert result.combination.peak_tuples >= PEAK_BOUND
    assert result.combination.peak_tuples <= LEGACY_PEAK_FLOOR


def test_optimizer_still_matches_naive(scale4):
    expected = execute_naive(scale4, OTHERS_PUBLISHED_1977_TEXT)
    assert QueryEngine(scale4, OPTIMIZED).run(OTHERS_PUBLISHED_1977_TEXT).relation == expected


def test_prepared_execution_keeps_the_peak_bound(scale4):
    """Plan reuse must not change what the combination phase builds."""
    service = connect(scale4, options=OPTIMIZED).service
    prepared = service.prepare(OTHERS_PUBLISHED_1977_TEXT)
    first = prepared.execute()
    second = prepared.execute()  # runs from the cached collection structures
    assert first.combination.peak_tuples <= PEAK_BOUND
    assert second.combination.peak_tuples <= PEAK_BOUND
    assert second.relation == first.relation


# ------------------------------------------------ PR 9: statistics-driven cost model


#: The cost-model benchmark's pinned acceptance numbers (``bench_cost_model``,
#: hot-group size 50): the uniform estimator's join order materializes at
#: least 5x the peak intermediates of the histogram-driven order, and after
#: the Zipf head drifts, the next execution on a default connection plans
#: again and peaks at most 2x what it peaked before the drift.
COST_MODEL_PEAK_RATIO = 5.0
COST_MODEL_DRIFT_RATIO = 2.0


def test_histogram_join_order_keeps_the_5x_peak_win():
    from benchmarks.bench_cost_model import FULL_HOT, _measure

    row = _measure(FULL_HOT)
    assert row["join_uniform"] != row["join_histogram"], row
    assert row["ratio"] >= COST_MODEL_PEAK_RATIO, row


def test_drift_replans_on_a_default_connection():
    """Rows equal the legacy order (asserted inside ``_measure_drift``)."""
    from benchmarks.bench_cost_model import _measure_drift

    row = _measure_drift()
    assert row["replanned"], row
    assert row["peak_after"] <= COST_MODEL_DRIFT_RATIO * row["peak_before"], row


# ------------------------------------------------ PR 10: bibliographic workload


#: The bibliography benchmark's pinned acceptance numbers
#: (``bench_bibliography``, full scale): the uniform estimator walks into the
#: era-head explosion and materializes at least 3x the histogram order's peak
#: (monotone from scale 1, asserted in the benchmark itself).
BIBLIO_PEAK_RATIO = 3.0


def test_bibliography_histogram_order_keeps_the_3x_peak_win():
    from benchmarks.bench_bibliography import FULL_SCALE, _measure_order

    row = _measure_order(FULL_SCALE)
    assert row["join_uniform"] != row["join_histogram"], row
    assert row["ratio"] >= BIBLIO_PEAK_RATIO, row


# ------------------------------------ PR 17: a transaction costs what it changes


def _indexed_ledger(paged: bool = True):
    from repro.relational.database import Database
    from repro.types.scalar import INTEGER, Subrange

    database = Database("ledger", paged=paged)
    relation = database.create_relation(
        "ledger",
        [("k", INTEGER), ("bucket", Subrange(0, 99, "bucket")), ("n", INTEGER)],
        key=["k"],
    )
    for k in range(5_000):
        relation.insert({"k": k, "bucket": k % 100, "n": k * 7})
    database.create_index("ledger", "bucket")
    database.create_index("ledger", "n", operator="<=")
    database.create_index("ledger", "k")
    return database, relation


@pytest.mark.parametrize("backend", ["memory", "paged"])
def test_a_rolled_back_five_row_transaction_costs_five_rows(backend, monkeypatch):
    """Counts, not clocks: on a 5 000-row relation with three indexes, five
    inserts and their rollback maintain no index — and nothing ever walks,
    copies or reassigns the relation."""
    from repro.relational.relation import Relation

    database, relation = _indexed_ledger(paged=(backend == "paged"))
    assert len(list(database.indexes())) == 3
    elements = relation._elements

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a five-row transaction touched the whole relation")

    monkeypatch.setattr(Relation, "elements", forbidden)
    monkeypatch.setattr(Relation, "assign", forbidden)

    session = connect(database).session()
    before = database.statistics.index_maintenance_ops
    session.begin()
    for k in range(5_000, 5_005):
        relation.insert({"k": k, "bucket": k % 100, "n": k})
    session.rollback()
    assert database.statistics.index_maintenance_ops == before
    assert len(relation) == 5_000 and relation.find(5_000) is None
    assert relation._elements is elements and not database._snapshots.overlay

    # Five deletes and their rollback: the same count again.
    before = database.statistics.index_maintenance_ops
    session.begin()
    for k in range(100, 105):
        assert relation.delete_key(k)
    session.rollback()
    assert database.statistics.index_maintenance_ops == before
    assert len(relation) == 5_000 and relation.find(102).n == 714
    assert relation._elements is elements


# ------------- PR 20: the combination plan is made once, and priced by what the stream can hold


#: ``cocitation`` at the parent commit (bibliography scale 4, seed 1982): the
#: chain joined ``(a.pnr <> b.pnr)`` on ``b`` alone (est 196, actual 28 252,
#: q-error 143.42) before ``(c1.csrc = a.pnr)``.
COCITATION_PARENT_COMPARISONS = (69_946, 69_858)  # cold, repeated


@pytest.fixture(scope="module")
def citation_cursor():
    from repro.workloads.bibliography import build_bibliography_database

    connection = connect(build_bibliography_database(scale=4, seed=1982))
    yield connection.cursor()
    connection.close()


def _twice(cursor, text):
    """``(statistics, combination)`` of a cold and of a repeated execution."""
    runs = []
    for _ in range(2):
        rows = cursor.execute(text).fetchall()
        runs.append((cursor.statistics, cursor.result.combination, rows))
    assert runs[0][2] == runs[1][2]
    assert [run[1].plan_reused for run in runs] == [False, True]
    return [run[:2] for run in runs]


def test_cocitation_joins_by_what_the_stream_can_hold(citation_cursor):
    from repro.engine.combination import qerror
    from repro.workloads.bibliography.queries import COCITATION_TEXT

    (cold, combination), (warm, repeated) = _twice(citation_cursor, COCITATION_TEXT)
    order = [description for description, _ in combination.join_orders[0]]
    assert order.index("indirect join (c1.csrc = a.pnr)") < order.index(
        "indirect join (a.pnr <> b.pnr)"
    ), order
    for run in (combination, repeated):
        assert run.join_orders[0] == combination.join_orders[0]
        for description, est, actual in run.join_estimates[0]:
            assert qerror(est, actual) < 2, (description, est, actual)
    assert cold["comparisons"] * 3 < COCITATION_PARENT_COMPARISONS[0], cold["comparisons"]
    assert warm["comparisons"] * 10 < COCITATION_PARENT_COMPARISONS[1], warm["comparisons"]
    assert (cold["reduced_tuples"], warm["reduced_tuples"]) == (3_934, 0)


def test_coauthor_pairs_pays_for_its_plan_once(citation_cursor):
    from repro.workloads.bibliography.queries import COAUTHOR_PAIRS_TEXT

    (cold, combination), (warm, repeated) = _twice(citation_cursor, COAUTHOR_PAIRS_TEXT)
    # Cold is the parent's work to the digit: the new estimate does not
    # reorder this query, and planning then wiring is what one pass did.
    assert (cold["comparisons"], cold["reduced_tuples"]) == (43_226, 9_070)
    assert warm["reduced_tuples"] == 0 and warm["comparisons"] * 10 < cold["comparisons"]
    assert repeated.reductions == combination.reductions != [[]]
    assert repeated.join_estimates == combination.join_estimates
    for counter in ("rows_streamed", "operators_pipelined"):
        assert warm[counter] == cold[counter], counter


def test_the_stream_side_estimate_never_undercuts_the_carried_size_formula():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.engine.combination import stream_join_estimate
    from repro.engine.stream import Rows
    from repro.relational.statistics import estimate_join_cardinality
    from repro.types.scalar import INTEGER
    from repro.types.schema import RelationSchema

    columns = st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True)

    @st.composite
    def operands(draw):
        names = draw(columns)
        row = st.tuples(*[st.integers(0, 6)] * len(names))
        rows = sorted(draw(st.sets(row, max_size=12)))
        return Rows(RelationSchema("r", [(name, INTEGER) for name in names], key=None), rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(operands(), min_size=1, max_size=3), operands(), st.floats(0, 40))
    def check(joined, operand, left_size):
        covered = {name for entry in joined for name in entry.schema.field_names}
        shared = [name for name in operand.schema.field_names if name in covered]
        if not shared:
            return
        carried = max(int(left_size), 1) if left_size > 0 else 0
        distinct = len({tuple(row[operand.schema.field_position(n)] for n in shared)
                        for row in operand.rows})
        old = estimate_join_cardinality(carried, len(operand), carried, distinct)
        new = stream_join_estimate(left_size, joined, operand, shared)
        assert new >= old
        bounds = [
            min(len({row[entry.schema.field_position(name)] for row in entry.rows})
                for entry in joined if name in entry.schema)
            for name in shared
        ]
        if all(bound >= carried for bound in bounds):
            assert new == old

    check()


# ------------- PR 21: a Strategy 4 value list is read once per contents, not once per query


def test_a_new_status_reads_no_inner_relation_and_a_papers_commit_only_papers():
    """``running_query`` after warm-up: a binding nobody has sent misses the
    whole-result memo, yet its three value lists are the database's — only
    the outer ``employees`` is scanned; one commit to ``papers`` costs the
    ``papers`` list and nothing else."""
    from repro.workloads.queries import RUNNING_QUERY_PARAM_TEXT as text

    database = build_university_database(scale=4)
    connection = connect(database)
    cursor = connection.cursor()
    binding = {"status": "professor", "year": 1977, "level": "sophomore"}

    def read(status):
        cursor.execute(text, {**binding, "status": status}).fetchall()
        assert cursor.result.relation == execute_naive(
            database,
            text.replace("$status", status).replace("$year", "1977").replace("$level", "sophomore"),
        )
        relations = cursor.statistics["relations"]
        read_from = {name: c["elements_read"] for name, c in relations.items() if c["elements_read"]}
        return read_from, cursor.statistics

    cold, statistics = read("professor")
    assert set(cold) == {"employees", "papers", "courses", "timetable"}
    assert (statistics["value_lists_built"], statistics["value_lists_reused"]) == (3, 0)
    retained = statistics["intermediate_tuples"]

    warm, statistics = read("student")
    assert set(warm) == {"employees"}, warm
    assert (statistics["value_lists_built"], statistics["value_lists_reused"]) == (0, 3)
    assert sum(c["scans"] for c in statistics["relations"].values()) == 1

    with connection.session():
        database.relation("papers").insert({"penr": 1, "pyear": 1999, "ptitle": "Bench"})
    after, statistics = read("assistant")
    assert set(after) == {"employees", "papers"}, after
    assert (statistics["value_lists_built"], statistics["value_lists_reused"]) == (1, 2)
    # A hit charges what the build would have retained: the counter models
    # the paper argues with do not depend on who read the list first.
    cold_again, statistics = read("professor")
    assert set(cold_again) == {"employees"} and statistics["intermediate_tuples"] == retained
    connection.close()


# ------------- PR 23: chunks flow, the counters and the rows do not move


#: Per citation query (bibliography scale 4, seed 1982, first representative
#: binding), taken at the parent commit before any kernel passed a chunk:
#: ``(comparisons, rows_streamed, intermediate_tuples, peak_tuples)`` of the
#: cold and of the repeated execution, the row count, and the first 16 hex
#: digits of the SHA-256 of ``repr`` of the fetched rows, in order.
CITATION_PINS = {
    "coauthor_pairs": ((43226, 1694, 13702, 144), (2379, 1694, 0, 144), 144, "fca4e5899c436ad4"),
    "co_coauthors": ((368, 90, 144, 0), (0, 90, 0, 0), 29, "1f66b9baf587b870"),
    "cites_the_prolific": ((368, 186, 178, 0), (0, 186, 0, 0), 55, "3f3ae25656f423ba"),
    "well_cited_venues": ((6421, 8016, 1770, 1721), (6421, 8016, 0, 1721), 11, "3f6c8c6d90706a42"),
    "self_citers": ((6472, 107, 1716, 2), (181, 107, 0, 2), 2, "b4fe497439b654a7"),
    "cocitation": ((15460, 4003, 5429, 29), (5045, 4003, 0, 29), 29, "b8b5f067870cff17"),
    "recent_papers": ((88, 0, 0, None), (88, 0, 0, None), 7, "6da6194698c51f9f"),
    "coauthors_of": ((368, 57, 63, 0), (0, 57, 0, 0), 19, "61b04db64e9e2448"),
    "venue_papers": ((20, 111, 38, 0), (0, 111, 0, 0), 37, "d3522b35d5711b5d"),
}


@pytest.mark.parametrize("name", sorted(CITATION_PINS))
def test_citation_counters_and_rows_are_what_they_were_row_at_a_time(name):
    import hashlib

    from repro.workloads.bibliography import build_bibliography_database
    from repro.workloads.bibliography import queries

    parameterized = queries.bibliography_parameterized_queries()
    if name in parameterized:
        text, bindings = parameterized[name]
        binding = bindings[0]
    else:
        text, binding = getattr(queries, name.upper() + "_TEXT"), None
    cold, warm, count, digest = CITATION_PINS[name]
    connection = connect(build_bibliography_database(scale=4, seed=1982))
    cursor = connection.cursor()
    for expected in (cold, warm):
        rows = [tuple(row) for row in cursor.execute(text, binding).fetchall()]
        statistics, combination = cursor.statistics, cursor.result.combination
        assert (
            statistics["comparisons"], statistics["rows_streamed"],
            statistics["intermediate_tuples"],
            None if combination is None else combination.peak_tuples,
        ) == expected
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest
    connection.close()


# ------------- PR 24: selections join the chunked pipeline, the counters and the rows do not move


SELECTION_QUERIES = {
    "point_probe": "[<e.enr, e.ename, e.estatus> OF EACH e IN employees: (e.enr = 17)]",
    "range_probe": "[<p.ptitle, p.penr, p.pyear> OF EACH p IN papers: (p.pyear <= 1975)]",
    "probe_with_residual":
        "[<e.ename> OF EACH e IN employees: (e.enr <= 30) AND (e.estatus = professor)]",
    "restricted_scan": "[<e.ename, e.enr> OF EACH e IN employees: (e.estatus = professor)]",
    "pruned_scan": "[<c.ctitle> OF EACH c IN courses: (c.cnr <= 40)]",
}
_RELATION_COUNTERS = ("elements_read", "scans", "index_probes", "index_entries_read")
_TOTALS = ("comparisons", "pages_read", "page_hits", "page_misses", "pages_skipped")

#: Per source and query (university scale 40, sorted indexes on ``employees.enr``
#: and ``papers.pyear``), three executions on one cursor, taken at the parent
#: commit while a selection still ran row at a time: ``(relation, elements_read,
#: scans, index_probes, index_entries_read)``, then ``(comparisons, pages_read,
#: page_hits, page_misses, pages_skipped)``, the row count and the first 16 hex
#: digits of the SHA-256 of ``repr`` of the fetched rows, in order.  ``memory``
#: and ``paged`` are the engine door (``QueryEngine.run``) on the database built
#: with ``paged=False`` and ``paged=True``; ``pinned`` is a cursor, which scans,
#: then builds the index view, then probes it — at a contents version past the
#: one ``create_index`` published its build at (each indexed relation assigned
#: its own elements, which keeps their order).  The page counters read 0 since
#: relations hold no pages, and ``paged=True`` is ignored, so its cells read what
#: ``memory``'s do (``pruned_scan`` names the shape that took a zone-map pruned
#: scan on paged relations: a full scan of all 240 courses now).
SELECTION_PINS = {
    ("memory", "point_probe"): [(("employees", 1, 0, 1, 1), (0, 0, 0, 0, 0), 1, "7b60311b5d2cda7b")] * 3,
    ("memory", "range_probe"): [(("papers", 161, 0, 1, 161), (0, 0, 0, 0, 0), 161, "d1b4a4c858533b04")] * 3,
    ("memory", "probe_with_residual"): [(("employees", 30, 0, 1, 30), (30, 0, 0, 0, 0), 6, "bba4fa65b3448717")] * 3,
    ("memory", "restricted_scan"): [(("employees", 320, 1, 0, 0), (320, 0, 0, 0, 0), 105, "69ed57f1bc8d19d3")] * 3,
    ("memory", "pruned_scan"): [(("courses", 240, 1, 0, 0), (240, 0, 0, 0, 0), 40, "32e6ebbe4cfebc28")] * 3,
    ("paged", "point_probe"): [(("employees", 1, 0, 1, 1), (0, 0, 0, 0, 0), 1, "7b60311b5d2cda7b")] * 3,
    ("paged", "range_probe"): [(("papers", 161, 0, 1, 161), (0, 0, 0, 0, 0), 161, "d1b4a4c858533b04")] * 3,
    ("paged", "probe_with_residual"): [(("employees", 30, 0, 1, 30), (30, 0, 0, 0, 0), 6, "bba4fa65b3448717")] * 3,
    ("paged", "restricted_scan"): [(("employees", 320, 1, 0, 0), (320, 0, 0, 0, 0), 105, "69ed57f1bc8d19d3")] * 3,
    ("paged", "pruned_scan"): [(("courses", 240, 1, 0, 0), (240, 0, 0, 0, 0), 40, "32e6ebbe4cfebc28")] * 3,
    ("pinned", "point_probe"): [
        (("employees", 320, 1, 0, 0), (320, 0, 0, 0, 0), 1, "7b60311b5d2cda7b"),
        (("employees", 321, 1, 1, 1), (0, 0, 0, 0, 0), 1, "7b60311b5d2cda7b"),
        (("employees", 1, 0, 1, 1), (0, 0, 0, 0, 0), 1, "7b60311b5d2cda7b"),
    ],
    ("pinned", "range_probe"): [
        (("papers", 480, 1, 0, 0), (480, 0, 0, 0, 0), 161, "6473ee807356b643"),
        (("papers", 641, 1, 1, 161), (0, 0, 0, 0, 0), 161, "d1b4a4c858533b04"),
        (("papers", 161, 0, 1, 161), (0, 0, 0, 0, 0), 161, "d1b4a4c858533b04"),
    ],
    ("pinned", "probe_with_residual"): [
        (("employees", 320, 1, 0, 0), (350, 0, 0, 0, 0), 6, "bba4fa65b3448717"),
        (("employees", 350, 1, 1, 30), (30, 0, 0, 0, 0), 6, "bba4fa65b3448717"),
        (("employees", 30, 0, 1, 30), (30, 0, 0, 0, 0), 6, "bba4fa65b3448717"),
    ],
    ("pinned", "restricted_scan"): [(("employees", 320, 1, 0, 0), (320, 0, 0, 0, 0), 105, "69ed57f1bc8d19d3")] * 3,
    ("pinned", "pruned_scan"): [(("courses", 240, 1, 0, 0), (240, 0, 0, 0, 0), 40, "32e6ebbe4cfebc28")] * 3,
}


@pytest.mark.parametrize("source, name", sorted(SELECTION_PINS))
def test_selection_counters_and_rows_are_what_they_were_row_at_a_time(source, name):
    import hashlib

    database = build_university_database(scale=40, paged=source == "paged")
    database.create_index("employees", "enr", operator="<=")
    database.create_index("papers", "pyear", operator="<=")
    if source == "pinned":
        for relation in map(database.relation, ("employees", "papers")):
            relation.assign(relation.elements())
    connection = connect(database)
    cursor, engine = connection.cursor(), QueryEngine(database)
    for expected in SELECTION_PINS[source, name]:
        if source == "pinned":
            rows = [tuple(row) for row in cursor.execute(SELECTION_QUERIES[name]).fetchall()]
            statistics = cursor.statistics
        else:
            result = engine.run(SELECTION_QUERIES[name])
            rows, statistics = [tuple(row) for row in result.rows], result.statistics
        (read,) = (
            (relation, *(counters[c] for c in _RELATION_COUNTERS))
            for relation, counters in statistics["relations"].items()
            if any(counters[c] for c in _RELATION_COUNTERS)
        )
        assert (
            read, tuple(statistics[total] for total in _TOTALS), len(rows),
            hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
        ) == expected
    connection.close()


# ------------- the literal Section 3.3 procedure: what plan="literal" computes


#: The configurations under which the combination phase runs the literal
#: procedure (``plan="literal"``): the unoptimized system, Strategy 1
#: alone, Strategy 1 with each join-order cost model, and the three
#: configurations of ``bench_cost_model.py`` (resolved by name there).
LITERAL_CONFIGS = {
    "none": StrategyOptions.none(),
    "s1": StrategyOptions.only(parallel_collection=True),
    "s1_reduced": StrategyOptions.only(
        parallel_collection=True, join_order="uniform", semijoin_reduction=True
    ),
    "s1_histogram": StrategyOptions.only(
        parallel_collection=True, join_order="histogram"
    ),
    "BASE": None,
    "UNIFORM": None,
    "HISTOGRAM": None,
}

#: Per ``(library, query, configuration)`` — every non-parameterized ``*_TEXT``
#: query of the university library at scale 2 and of the bibliography library
#: at scale 1, run through ``QueryEngine.run``: ``(peak_tuples,
#: intermediate_tuples, comparisons, conjunction_sizes, union_size,
#: after_quantifiers_size, join order, rows digest)``.  The join order names,
#: per evaluated conjunction, each step's structure by its position in the
#: collection result (``+x``: the range of ``x``); the digest is the first 16
#: hex digits of the SHA-256 of ``repr`` of the sorted result rows.  A query
#: whose matrix is constant has no combination phase: its counters are
#: ``None``.  Taken from a separate relation-at-a-time execution of the
#: procedure, whose join order priced each step by the joined relation so far;
#: the one chain prices a step past the first by what the stream can hold.
#: That reorders ``self_citers`` under histogram statistics (``s1_histogram``,
#: ``BASE``, ``HISTOGRAM``): it was ``(245, 732, 811, (3,), 3, 2, '0,2,1,3')``
#: with the same rows.
LITERAL_PINS: dict[tuple[str, str, str], tuple] = {
    ('university', 'example_21', 'none'): (16803, 89922, 46613, (10080, 16560, 120), 16803, 3, '0,1,+c,+t;0,1,+c,+t;0,3,2,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 's1'): (16803, 89922, 46613, (10080, 16560, 120), 16803, 3, '0,1,+c,+t;0,1,+c,+t;0,3,2,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 's1_reduced'): (16803, 89922, 47210, (10080, 16560, 120), 16803, 3, '0,1,+c,+t;0,1,+c,+t;0,3,2,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 's1_histogram'): (16803, 89922, 46613, (10080, 16560, 120), 16803, 3, '0,1,+c,+t;0,1,+c,+t;0,3,2,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 'BASE'): (3363, 10604, 3951, (3360, 50), 3363, 3, '0,+c,+t;1,0,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 'UNIFORM'): (3363, 10604, 3951, (3360, 50), 3363, 3, '0,+c,+t;1,0,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_21', 'HISTOGRAM'): (3363, 10604, 3951, (3360, 50), 3363, 3, '0,+c,+t;1,0,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 'none'): (3363, 10604, 4021, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 's1'): (3363, 10604, 3953, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 's1_reduced'): (3363, 10604, 3979, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 's1_histogram'): (3363, 10604, 3953, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 'BASE'): (3363, 10604, 3953, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 'UNIFORM'): (3363, 10604, 3953, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'example_45', 'HISTOGRAM'): (3363, 10604, 3953, (3360, 50), 3363, 3, '0,+c,+t;0,1,+p', 'dd5cd7ee6d77bd98'),
    ('university', 'no_1977_papers', 'none'): (374, 1564, 1404, (224, 360), 374, 8, '0,+e;0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 's1'): (374, 1564, 1404, (224, 360), 374, 8, '0,+e;0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 's1_reduced'): (374, 1564, 1404, (224, 360), 374, 8, '0,+e;0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 's1_histogram'): (374, 1564, 1404, (224, 360), 374, 8, '0,+e;0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 'BASE'): (150, 308, 334, (150,), 150, 8, '0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 'UNIFORM'): (150, 308, 334, (150,), 150, 8, '0', '8fb2be7da2798fdb'),
    ('university', 'no_1977_papers', 'HISTOGRAM'): (150, 308, 334, (150,), 150, 8, '0', '8fb2be7da2798fdb'),
    ('university', 'others_published_1977', 'none'): (69, 615, 324, (47,), 47, 3, '0,2,1,3', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 's1'): (69, 615, 324, (47,), 47, 3, '0,2,1,3', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 's1_reduced'): (47, 570, 842, (47,), 47, 3, '0,3,2,1', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 's1_histogram'): (115, 638, 370, (47,), 47, 3, '0,3,2,1', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 'BASE'): (47, 158, 92, (47,), 47, 3, '1,0', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 'UNIFORM'): (47, 158, 92, (47,), 47, 3, '1,0', 'dd5cd7ee6d77bd98'),
    ('university', 'others_published_1977', 'HISTOGRAM'): (47, 158, 92, (47,), 47, 3, '1,0', 'dd5cd7ee6d77bd98'),
    ('university', 'professors', 'none'): (3, 6, 32, (3,), 3, 3, '0', '02b8d325c4ef4e2b'),
    ('university', 'professors', 's1'): (3, 6, 32, (3,), 3, 3, '0', '02b8d325c4ef4e2b'),
    ('university', 'professors', 's1_reduced'): (3, 6, 32, (3,), 3, 3, '0', '02b8d325c4ef4e2b'),
    ('university', 'professors', 's1_histogram'): (3, 6, 32, (3,), 3, 3, '0', '02b8d325c4ef4e2b'),
    ('university', 'professors', 'BASE'): (None, None, None, None, None, None, None, '02b8d325c4ef4e2b'),
    ('university', 'professors', 'UNIFORM'): (None, None, None, None, None, None, None, '02b8d325c4ef4e2b'),
    ('university', 'professors', 'HISTOGRAM'): (None, None, None, None, None, None, None, '02b8d325c4ef4e2b'),
    ('university', 'publishing_teachers', 'none'): (17, 164, 91, (17,), 17, 6, '0,2,3,1', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 's1'): (17, 164, 91, (17,), 17, 6, '0,2,3,1', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 's1_reduced'): (17, 156, 326, (17,), 17, 6, '0,2,3,1', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 's1_histogram'): (17, 164, 91, (17,), 17, 6, '0,2,3,1', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 'BASE'): (17, 138, 62, (17,), 17, 6, '1,2,0', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 'UNIFORM'): (17, 138, 62, (17,), 17, 6, '1,2,0', 'df48036ada4acfdf'),
    ('university', 'publishing_teachers', 'HISTOGRAM'): (17, 138, 62, (17,), 17, 6, '1,2,0', 'df48036ada4acfdf'),
    ('university', 'seniority', 'none'): (87, 177, 286, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 's1'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 's1_reduced'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 's1_histogram'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 'BASE'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 'UNIFORM'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'seniority', 'HISTOGRAM'): (87, 177, 262, (87,), 87, 3, '0', '8381c8f670e4ecc6'),
    ('university', 'teaches_low_level', 'none'): (11, 98, 63, (11,), 11, 9, '0,1,2', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 's1'): (11, 98, 63, (11,), 11, 9, '0,1,2', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 's1_reduced'): (11, 98, 159, (11,), 11, 9, '0,1,2', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 's1_histogram'): (11, 98, 63, (11,), 11, 9, '0,1,2', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 'BASE'): (11, 72, 34, (11,), 11, 9, '0,1', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 'UNIFORM'): (11, 72, 34, (11,), 11, 9, '0,1', 'c14afaaf58dd3041'),
    ('university', 'teaches_low_level', 'HISTOGRAM'): (11, 72, 34, (11,), 11, 9, '0,1', 'c14afaaf58dd3041'),
    ('bibliography', 'cites_the_prolific', 'none'): (272, 1025, 1185, (70,), 70, 13, '0,2,3,4,1', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 's1'): (272, 1025, 1185, (70,), 70, 13, '0,2,3,4,1', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 's1_reduced'): (70, 742, 1759, (70,), 70, 13, '1,4,3,2,0', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 's1_histogram'): (70, 742, 585, (70,), 70, 13, '1,4,3,2,0', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 'BASE'): (70, 516, 325, (70,), 70, 13, '2,1,0', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 'UNIFORM'): (70, 516, 325, (70,), 70, 13, '2,1,0', '22fe2b64c6468519'),
    ('bibliography', 'cites_the_prolific', 'HISTOGRAM'): (70, 516, 325, (70,), 70, 13, '2,1,0', '22fe2b64c6468519'),
    ('bibliography', 'co_coauthors', 'none'): (795, 2022, 2815, (66,), 66, 7, '0,5,4,3,2,1', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 's1'): (795, 2022, 2815, (66,), 66, 7, '0,5,4,3,2,1', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 's1_reduced'): (66, 940, 1934, (66,), 66, 7, '1,2,3,4,5,0', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 's1_histogram'): (103, 1019, 775, (66,), 66, 7, '1,2,3,4,5,0', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 'BASE'): (103, 745, 465, (66,), 66, 7, '0,1,2,3', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 'UNIFORM'): (103, 745, 465, (66,), 66, 7, '0,1,2,3', 'ba2a06c9fc906291'),
    ('bibliography', 'co_coauthors', 'HISTOGRAM'): (103, 745, 465, (66,), 66, 7, '0,1,2,3', 'ba2a06c9fc906291'),
    ('bibliography', 'coauthor_pairs', 'none'): (1242, 3457, 5451, (37,), 37, 31, '0,1,2,3', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 's1'): (1242, 3457, 5451, (37,), 37, 31, '0,1,2,3', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 's1_reduced'): (104, 1348, 4008, (37,), 37, 31, '2,3,1,0', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 's1_histogram'): (122, 1384, 573, (37,), 37, 31, '1,3,2,0', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 'BASE'): (122, 1384, 573, (37,), 37, 31, '1,3,2,0', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 'UNIFORM'): (122, 1384, 573, (37,), 37, 31, '1,3,2,0', '48c047a506d912a5'),
    ('bibliography', 'coauthor_pairs', 'HISTOGRAM'): (122, 1384, 573, (37,), 37, 31, '1,3,2,0', '48c047a506d912a5'),
    ('bibliography', 'cocitation', 'none'): (35, 1025, 227, (28,), 28, 6, '0,1,2,3,4', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 's1'): (35, 1025, 227, (28,), 28, 6, '0,1,2,3,4', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 's1_reduced'): (28, 1010, 1804, (28,), 28, 6, '0,1,2,3,4', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 's1_histogram'): (35, 1025, 227, (28,), 28, 6, '0,1,2,3,4', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 'BASE'): (35, 530, 197, (28,), 28, 6, '0,1,2,3', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 'UNIFORM'): (35, 530, 197, (28,), 28, 6, '0,1,2,3', '0e9fefdf4246711d'),
    ('bibliography', 'cocitation', 'HISTOGRAM'): (35, 530, 197, (28,), 28, 6, '0,1,2,3', '0e9fefdf4246711d'),
    ('bibliography', 'self_citers', 'none'): (245, 751, 849, (3,), 3, 2, '0,1,2,3', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 's1'): (245, 751, 849, (3,), 3, 2, '0,1,2,3', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 's1_reduced'): (6, 363, 1161, (3,), 3, 2, '0,1,3,2', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 's1_histogram'): (272, 759, 865, (3,), 3, 2, '0,2,3,1', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 'BASE'): (272, 759, 865, (3,), 3, 2, '0,2,3,1', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 'UNIFORM'): (393, 899, 1145, (3,), 3, 2, '0,1,3,2', '7a2d03b107acf214'),
    ('bibliography', 'self_citers', 'HISTOGRAM'): (272, 759, 865, (3,), 3, 2, '0,2,3,1', '7a2d03b107acf214'),
    ('bibliography', 'well_cited_venues', 'none'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 's1'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 's1_reduced'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 's1_histogram'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 'BASE'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 'UNIFORM'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
    ('bibliography', 'well_cited_venues', 'HISTOGRAM'): (4717, 14822, 5549, (4664, 265), 4717, 2, '0,+c;0,+v', '4ae2943bd929f9d9'),
}


def _literal_queries(library: str) -> list[str]:
    from repro.workloads import queries
    from repro.workloads.bibliography import queries as bibliography

    module = queries if library == "university" else bibliography
    return sorted(
        name[: -len("_TEXT")].lower() for name in module.__all__
        if name.endswith("_TEXT") and not name.endswith("_PARAM_TEXT")
    )


_LITERAL_DATABASES: dict[str, object] = {}


def literal_cell(library: str, name: str, config: str) -> tuple:
    """One :data:`LITERAL_PINS` cell, measured on this tree."""
    import hashlib

    from repro.workloads import queries
    from repro.workloads.bibliography import build_bibliography_database
    from repro.workloads.bibliography import queries as bibliography

    database = _LITERAL_DATABASES.get(library)
    if database is None:
        database = _LITERAL_DATABASES[library] = (
            build_university_database(scale=2) if library == "university"
            else build_bibliography_database(scale=1)
        )
    module = queries if library == "university" else bibliography
    options = LITERAL_CONFIGS[config]
    if options is None:
        from benchmarks import bench_cost_model

        options = getattr(bench_cost_model, config)
    result = QueryEngine(database, options).run(getattr(module, name.upper() + "_TEXT"))
    rows = sorted(tuple(record.values) for record in result.relation)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    combination = result.combination
    if combination is None:
        return (None,) * 7 + (digest,)
    orders = []
    for index, order in zip(combination.conjunction_indexes, combination.join_orders):
        structures = [s.description for s in result.collection.conjunctions[index]]
        orders.append(",".join(
            "+" + description[len("range of "):] if description.startswith("range of ")
            else str(structures.index(description))
            for description, _ in order
        ))
    statistics = result.statistics
    return (
        combination.peak_tuples, statistics["intermediate_tuples"],
        statistics["comparisons"], tuple(combination.conjunction_sizes),
        combination.union_size, combination.after_quantifiers_size, ";".join(orders), digest,
    )


@pytest.mark.parametrize("library, name, config", [
    (library, name, config)
    for library in ("university", "bibliography")
    for name in _literal_queries(library)
    for config in LITERAL_CONFIGS
])
def test_literal_procedure_counters_and_rows(library, name, config):
    assert literal_cell(library, name, config) == LITERAL_PINS[library, name, config]
