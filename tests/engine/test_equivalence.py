"""Cross-engine equivalence: every optimized path vs. ground truth.

Four axes are crossed here:

* **optimizer settings** — ``join_order`` × ``semijoin_reduction``;
* **plan policy** — ``plan="streamed"`` vs. ``plan="literal"`` (the literal
  Section 3.3 procedure, n-tuples over every variable), both
  on the one pull-based pipeline, asserted byte-identical in
  :class:`TestStreamingEquivalence`, crossed with the optimizer flags at
  both scales;
* **strategy configurations** — the representative configurations of
  ``conftest`` (scale 1) and a reduced set (scale 2);
* **the ``paged`` keyword** — every database builder still accepts
  ``paged=`` and ignores it: a relation is its element dict either way.
  The ``memory`` cells build with ``paged=False``, the ``paged`` cells with
  ``paged=True`` (the builders' default).

For every cell, the phase-structured engine must return exactly the relation
computed by :func:`repro.engine.evaluator.execute_naive`, the two keyword
values must give databases that agree with each other, and the page
counters, kept on :class:`AccessStatistics` for callers that read them,
must read 0: nothing counts pages.  A final block extends the matrix to the
service layer: prepared parameterized execution must be byte-identical to
cold execution for every workload query, parameter binding and keyword value —
and so must texts with their constants written in, which the plan cache
compiles once per shape (the S1-S4 cross of that is
``tests/service/test_literal_lifting.py``; here it meets the permanent
indexes and both execution modes).
"""

from __future__ import annotations

import itertools

import pytest

from repro import QueryEngine, StrategyOptions, connect, execute_naive
from repro.workloads.queries import (
    all_named_queries,
    inline_parameters,
    parameterized_queries,
)
from repro.workloads.university import build_university_database, figure1_database

SCALE2_CONFIGS = {
    "all": StrategyOptions.all_strategies(),
    "none": StrategyOptions.none(),
    "s1": StrategyOptions.only(parallel_collection=True),
    "s1+s2": StrategyOptions.only(parallel_collection=True, one_step_nested=True),
    "s3+s4": StrategyOptions.only(
        extended_ranges=True, collection_phase_quantifiers=True
    ),
}

QUERIES = all_named_queries()

JOIN_ORDERS = ("written", "uniform", "histogram")
OPTIMIZER_FLAGS = list(itertools.product(JOIN_ORDERS, (False, True)))

BACKENDS = ("memory", "paged")


def _flag_id(flags: tuple[str, bool]) -> str:
    join_order, reduction = flags
    return f"join_order={join_order}-semijoin={'on' if reduction else 'off'}"


@pytest.fixture(params=BACKENDS, scope="module")
def backend(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def figure1_backend(backend):
    """The Figure 1 database, built with the requested ``paged`` keyword.

    Module-scoped: the tests below only read (every execution resets the
    shared statistics itself).
    """
    return figure1_database(paged=(backend == "paged"))


@pytest.fixture(scope="module")
def scale2_backend(backend):
    return build_university_database(scale=2, paged=(backend == "paged"))


def _assert_page_counters_sane(database, backend: str) -> None:
    """The page counters are kept for their readers and read 0 whatever
    ``paged`` the database was built with."""
    snapshot = database.statistics.as_dict()
    pages = {
        name: snapshot[name]
        for name in ("pages_read", "page_hits", "page_misses", "pages_skipped")
    }
    assert pages == dict.fromkeys(pages, 0), (backend, pages)


@pytest.mark.parametrize("flags", OPTIMIZER_FLAGS, ids=_flag_id)
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_optimizer_flags_match_naive_on_figure1(
    figure1_backend, backend, query_name, flags, strategy_options
):
    """All optimizer flags × strategy configs × backends, on the Figure 1 data."""
    join_order, reduction = flags
    options = strategy_options.with_(join_order=join_order, semijoin_reduction=reduction)
    expected = execute_naive(figure1_backend, QUERIES[query_name])
    result = QueryEngine(figure1_backend, options).run(QUERIES[query_name])
    assert result.relation == expected
    _assert_page_counters_sane(figure1_backend, backend)


@pytest.mark.parametrize("flags", OPTIMIZER_FLAGS, ids=_flag_id)
@pytest.mark.parametrize("config_name", sorted(SCALE2_CONFIGS))
def test_optimizer_flags_match_naive_at_scale2(scale2_backend, backend, config_name, flags):
    """A larger database catches size-dependent ordering bugs; one query per cell."""
    join_order, reduction = flags
    options = SCALE2_CONFIGS[config_name].with_(
        join_order=join_order, semijoin_reduction=reduction
    )
    for query_name in ("others_published_1977", "publishing_teachers", "example_2_1"):
        expected = execute_naive(scale2_backend, QUERIES[query_name])
        result = QueryEngine(scale2_backend, options).run(QUERIES[query_name])
        assert result.relation == expected, (config_name, query_name)
    _assert_page_counters_sane(scale2_backend, backend)


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_backends_agree_elementwise(query_name):
    """``paged=False`` and ``paged=True`` give databases that return the same
    elements in the same order for every named query: the keyword is
    ignored."""
    memory = figure1_database(paged=False)
    paged = figure1_database(paged=True)
    memory_result = QueryEngine(memory).run(QUERIES[query_name])
    paged_result = QueryEngine(paged).run(QUERIES[query_name])
    assert [r.values for r in memory_result.relation] == [
        r.values for r in paged_result.relation
    ]


INDEX_SPECS = (
    ("employees", "enr", "="),
    ("papers", "penr", "="),
    ("papers", "pyear", "<="),
    ("courses", "clevel", "<="),
    ("courses", "cnr", "="),
    ("timetable", "tenr", "="),
)


@pytest.fixture(scope="module")
def indexed_backend(backend):
    """The Figure 1 database with permanent indexes on every probe-able
    component, so the access-path selector actually has paths to choose."""
    database = figure1_database(paged=(backend == "paged"))
    for relation_name, field_name, operator in INDEX_SPECS:
        database.create_index(relation_name, field_name, operator=operator)
    return database


class TestIndexAccessPathEquivalence:
    """``use_index_paths`` on/off × queries × backends, on indexed data."""

    @pytest.mark.parametrize(
        "index_paths", (False, True), ids=("indexpaths=off", "indexpaths=on")
    )
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_matches_naive_with_permanent_indexes(
        self, indexed_backend, backend, query_name, index_paths
    ):
        options = StrategyOptions().with_(use_index_paths=index_paths)
        expected = execute_naive(indexed_backend, QUERIES[query_name])
        result = QueryEngine(indexed_backend, options).run(QUERIES[query_name])
        assert result.relation == expected, query_name
        _assert_page_counters_sane(indexed_backend, backend)

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_on_off_byte_identical(self, indexed_backend, query_name):
        on = QueryEngine(
            indexed_backend, StrategyOptions().with_(use_index_paths=True)
        ).run(QUERIES[query_name])
        off = QueryEngine(
            indexed_backend, StrategyOptions().with_(use_index_paths=False)
        ).run(QUERIES[query_name])
        assert sorted(r.values for r in on.relation) == sorted(
            r.values for r in off.relation
        )

    @pytest.mark.parametrize("config_name", sorted(SCALE2_CONFIGS))
    def test_strategy_configs_with_index_paths_at_scale2(self, config_name):
        database = build_university_database(scale=2, paged=True)
        for relation_name, field_name, operator in INDEX_SPECS:
            database.create_index(relation_name, field_name, operator=operator)
        options = SCALE2_CONFIGS[config_name].with_(use_index_paths=True)
        for query_name in ("others_published_1977", "publishing_teachers", "example_2_1"):
            expected = execute_naive(database, QUERIES[query_name])
            result = QueryEngine(database, options).run(QUERIES[query_name])
            assert result.relation == expected, (config_name, query_name)

    @pytest.mark.parametrize("workload_name", sorted(parameterized_queries()))
    def test_prepared_on_off_byte_identical(self, indexed_backend, workload_name):
        text, bindings = parameterized_queries()[workload_name]
        service = connect(indexed_backend).service
        prepared_on = service.prepare(text)
        prepared_off = service.prepare(
            text, StrategyOptions().with_(use_index_paths=False)
        )
        for values in bindings:
            for _ in range(2):  # the second run exercises the collection memo
                on = prepared_on.execute(values).relation
                off = prepared_off.execute(values).relation
                assert sorted(r.values for r in on) == sorted(
                    r.values for r in off
                ), (workload_name, values)


    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_snapshot_cursor_matches_naive_with_permanent_indexes(
        self, indexed_backend, query_name
    ):
        """Indexes present × the default front door: a pinned snapshot's index
        views must give the rows the naive interpreter gives."""
        expected = execute_naive(indexed_backend, QUERIES[query_name])
        with connect(indexed_backend) as connection:
            cursor = connection.cursor()
            for _ in range(2):  # the second run reuses the views (and the memo)
                rows = cursor.execute(QUERIES[query_name]).fetchall()
                assert sorted(r.values for r in rows) == sorted(
                    r.values for r in expected
                ), query_name

    @pytest.mark.parametrize("workload_name", sorted(parameterized_queries()))
    def test_snapshot_cursor_prepared_matches_naive(self, indexed_backend, workload_name):
        text, bindings = parameterized_queries()[workload_name]
        with connect(indexed_backend) as connection:
            cursor = connection.cursor()
            for values in bindings:
                expected = execute_naive(indexed_backend, inline_parameters(text, values))
                rows = cursor.execute(text, values).fetchall()
                assert sorted(r.values for r in rows) == sorted(
                    r.values for r in expected
                ), (workload_name, values)


class TestStreamingEquivalence:
    """``plan="streamed"`` / ``plan="literal"`` × the full existing matrix.

    The streamed plan must be byte-identical to the literal plan (and
    to the naive ground truth) across every strategy configuration, optimizer
    flag combination, ``paged`` keyword and access-path choice the suite
    already crosses.
    """

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_streaming_on_off_byte_identical_on_figure1(
        self, figure1_backend, backend, query_name, strategy_options
    ):
        expected = execute_naive(figure1_backend, QUERIES[query_name])
        on = QueryEngine(
            figure1_backend, strategy_options.with_(plan="streamed")
        ).run(QUERIES[query_name])
        off = QueryEngine(
            figure1_backend, strategy_options.with_(plan="literal")
        ).run(QUERIES[query_name])
        assert on.relation == expected
        assert off.relation == expected
        assert sorted(r.values for r in on.relation) == sorted(
            r.values for r in off.relation
        )
        _assert_page_counters_sane(figure1_backend, backend)

    @pytest.mark.parametrize("flags", OPTIMIZER_FLAGS, ids=_flag_id)
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_streaming_on_off_byte_identical_under_optimizer_flags_on_figure1(
        self, figure1_backend, backend, query_name, flags, strategy_options
    ):
        """Both plan policies × every join-order and reducer setting:
        the order and the reduced ranges each plan is handed must not change
        the rows it returns."""
        join_order, reduction = flags
        base = strategy_options.with_(join_order=join_order, semijoin_reduction=reduction)
        expected = execute_naive(figure1_backend, QUERIES[query_name])
        on = QueryEngine(
            figure1_backend, base.with_(plan="streamed")
        ).run(QUERIES[query_name])
        off = QueryEngine(
            figure1_backend, base.with_(plan="literal")
        ).run(QUERIES[query_name])
        assert on.relation == expected
        assert off.relation == expected
        assert sorted(r.values for r in on.relation) == sorted(
            r.values for r in off.relation
        )
        _assert_page_counters_sane(figure1_backend, backend)

    @pytest.mark.parametrize("flags", OPTIMIZER_FLAGS, ids=_flag_id)
    @pytest.mark.parametrize("config_name", sorted(SCALE2_CONFIGS))
    def test_streaming_on_off_byte_identical_at_scale2(
        self, scale2_backend, backend, config_name, flags
    ):
        join_order, reduction = flags
        base = SCALE2_CONFIGS[config_name].with_(
            join_order=join_order, semijoin_reduction=reduction
        )
        for query_name in ("others_published_1977", "publishing_teachers", "example_2_1"):
            on = QueryEngine(
                scale2_backend, base.with_(plan="streamed")
            ).run(QUERIES[query_name])
            off = QueryEngine(
                scale2_backend, base.with_(plan="literal")
            ).run(QUERIES[query_name])
            assert sorted(r.values for r in on.relation) == sorted(
                r.values for r in off.relation
            ), (config_name, query_name)
        _assert_page_counters_sane(scale2_backend, backend)

    @pytest.mark.parametrize(
        "index_paths", (False, True), ids=("indexpaths=off", "indexpaths=on")
    )
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_streaming_crossed_with_index_paths(
        self, indexed_backend, backend, query_name, index_paths
    ):
        expected = execute_naive(indexed_backend, QUERIES[query_name])
        base = StrategyOptions().with_(use_index_paths=index_paths)
        on = QueryEngine(
            indexed_backend, base.with_(plan="streamed")
        ).run(QUERIES[query_name])
        off = QueryEngine(
            indexed_backend, base.with_(plan="literal")
        ).run(QUERIES[query_name])
        assert on.relation == expected
        assert sorted(r.values for r in on.relation) == sorted(
            r.values for r in off.relation
        ), query_name
        _assert_page_counters_sane(indexed_backend, backend)

    @pytest.mark.parametrize("workload_name", sorted(parameterized_queries()))
    def test_prepared_streaming_on_off_byte_identical(self, figure1_backend, workload_name):
        text, bindings = parameterized_queries()[workload_name]
        service = connect(figure1_backend).service
        prepared_on = service.prepare(text, StrategyOptions().with_(plan="streamed"))
        prepared_off = service.prepare(text, StrategyOptions().with_(plan="literal"))
        for values in bindings:
            for _ in range(2):  # the second run exercises the collection memo
                on = prepared_on.execute(values).relation
                off = prepared_off.execute(values).relation
                assert sorted(r.values for r in on) == sorted(
                    r.values for r in off
                ), (workload_name, values)


class TestPreparedMatchesColdAcrossBackends:
    """The service-layer acceptance row of the matrix."""

    @pytest.mark.parametrize("workload_name", sorted(parameterized_queries()))
    def test_prepared_byte_identical_to_cold(self, figure1_backend, backend, workload_name):
        text, bindings = parameterized_queries()[workload_name]
        engine = QueryEngine(figure1_backend)
        service = connect(figure1_backend).service
        prepared = service.prepare(text)
        for values in bindings:
            expected = engine.run(inline_parameters(text, values)).relation
            for _ in range(2):  # the second run exercises the collection memo
                result = prepared.execute(values)
                assert sorted(r.values for r in result.relation) == sorted(
                    r.values for r in expected
                ), (workload_name, values, backend)
        _assert_page_counters_sane(figure1_backend, backend)


class TestLiftedLiteralEquivalence:
    """Constants written into the text × backends × indexes × execution mode.

    Every binding of a workload query, inlined, is one more text of one
    shape: one compilation serves them all, and each must give the rows —
    in the order — of compiling it as written (``QueryEngine.run``).
    """

    @pytest.mark.parametrize("plan", ("literal", "streamed"), ids=("plan=literal", "plan=streamed"))
    @pytest.mark.parametrize("workload_name", sorted(parameterized_queries()))
    def test_inlined_bindings_share_a_plan_and_match_cold(
        self, indexed_backend, backend, workload_name, plan
    ):
        text, bindings = parameterized_queries()[workload_name]
        options = StrategyOptions().with_(plan=plan)
        engine = QueryEngine(indexed_backend, options)
        with connect(indexed_backend, options=options) as connection:
            cursor = connection.cursor()
            with connection.session() as session:
                for values in bindings + bindings:  # the second round meets the memos
                    inlined = inline_parameters(text, values)
                    cold = engine.run(inlined)
                    assert cold.relation == execute_naive(indexed_backend, inlined)
                    expected = [r.values for r in cold.rows]
                    for front_door in (cursor, session.cursor()):
                        rows = front_door.execute(inlined).fetchall()
                        assert [r.values for r in rows] == expected, (workload_name, values)
            info = connection.cache_info()
            assert (info["misses"], info["size"]) == (1, 1), info
        _assert_page_counters_sane(indexed_backend, backend)

    def test_an_index_probe_takes_the_lifted_constant(self, indexed_backend):
        """The selector picks the path from the shape; the constant binds into it."""
        template = "[<e.ename> OF EACH e IN employees: (e.enr = %d)]"
        with connect(indexed_backend) as connection:
            cursor = connection.cursor()
            for enr in (1, 2, 3, 2, 1, 3, 2):
                rows = cursor.execute(template % enr).fetchall()
                assert [r.values for r in rows] == [
                    r.values for r in execute_naive(indexed_backend, template % enr)
                ]
            # A pin's index view is built on the second read of a version and
            # probed from then on (DESIGN.md "Index views"), whatever the constant.
            assert cursor.statistics["relations"]["employees"]["index_probes"] == 1
            assert "probe ind_employees_enr" in connection.prepare(template % 4).access_paths()["e"]
            assert connection.cache_info()["misses"] == 1


# ------------------------------------------------ the bibliographic domain

from repro.workloads.bibliography import (  # noqa: E402 - grouped with its matrix
    bibliography_named_queries,
    bibliography_parameterized_queries,
    build_bibliography_database,
    create_standard_indexes,
)

BIBLIO_QUERIES = bibliography_named_queries()

#: The reference configuration for the bibliographic matrix.  *Not* the
#: naive interpreter: the citation chains nest quantifiers four deep, and
#: direct interpretation enumerates the full range product (the naive ground
#: truth for the affordable queries is pinned at scale 1 in
#: ``tests/workloads/test_bibliography.py``).  Strategy 1 with every
#: optimizer, execution and access-path feature off is the baseline every
#: flag combination must reproduce byte-identically.
BIBLIO_REFERENCE = StrategyOptions.only(parallel_collection=True)

BIBLIO_FLAG_MATRIX = list(itertools.product(("literal", "streamed"), (False, True)))


def _biblio_id(flags: tuple[str, bool]) -> str:
    plan, index_paths = flags
    return f"plan={plan}-indexpaths={'on' if index_paths else 'off'}"


@pytest.fixture(scope="module")
def bibliography_backend(backend):
    """The scale-2 bibliographic database, with its standard indexes, built
    with the requested ``paged`` keyword."""
    database = build_bibliography_database(scale=2, paged=(backend == "paged"))
    create_standard_indexes(database)
    return database


@pytest.fixture(scope="module")
def bibliography_reference(bibliography_backend):
    """Every named query's reference rows, computed once per backend."""
    engine = QueryEngine(bibliography_backend, BIBLIO_REFERENCE)
    return {
        name: sorted(r.values for r in engine.run(query).relation)
        for name, query in BIBLIO_QUERIES.items()
    }


class TestBibliographyEquivalence:
    """The full flag matrix over the second domain.

    plan policy × index paths × ``paged`` keyword × every named citation
    query: Zipf-skewed many-to-many data with non-ASCII CharArray join keys
    is exactly where a path-dependent bug would show as
    silently dropped rows rather than as a crash.
    """

    @pytest.mark.parametrize("flags", BIBLIO_FLAG_MATRIX, ids=_biblio_id)
    @pytest.mark.parametrize("query_name", sorted(BIBLIO_QUERIES))
    def test_flag_matrix_matches_reference(
        self, bibliography_backend, bibliography_reference, backend, query_name, flags
    ):
        plan, index_paths = flags
        options = StrategyOptions.all_strategies().with_(
            collection_phase_quantifiers=False,
            plan=plan,
            use_index_paths=index_paths,
        )
        result = QueryEngine(bibliography_backend, options).run(BIBLIO_QUERIES[query_name])
        assert sorted(r.values for r in result.relation) == bibliography_reference[
            query_name
        ], (query_name, _biblio_id(flags))
        _assert_page_counters_sane(bibliography_backend, backend)

    @pytest.mark.parametrize("query_name", sorted(BIBLIO_QUERIES))
    def test_snapshot_cursor_matches_reference(
        self, bibliography_backend, bibliography_reference, query_name
    ):
        """Standard indexes present × the default front door (pinned snapshot,
        index views).  Against this matrix's reference configuration, as every
        cell here: the naive interpreter cannot afford the citation chains."""
        with connect(bibliography_backend) as connection:
            cursor = connection.cursor()
            for _ in range(2):  # the second run reuses the views (and the memo)
                rows = cursor.execute(BIBLIO_QUERIES[query_name]).fetchall()
                assert sorted(r.values for r in rows) == bibliography_reference[
                    query_name
                ], query_name

    def test_backends_agree_elementwise(self):
        memory = build_bibliography_database(scale=2, paged=False)
        paged = build_bibliography_database(scale=2, paged=True)
        for query_name, query in BIBLIO_QUERIES.items():
            memory_result = QueryEngine(memory).run(query)
            paged_result = QueryEngine(paged).run(query)
            assert [r.values for r in memory_result.relation] == [
                r.values for r in paged_result.relation
            ], query_name

    @pytest.mark.parametrize("workload_name", sorted(bibliography_parameterized_queries()))
    def test_prepared_byte_identical_to_cold(
        self, bibliography_backend, backend, workload_name
    ):
        text, bindings = bibliography_parameterized_queries()[workload_name]
        engine = QueryEngine(bibliography_backend)
        service = connect(bibliography_backend).service
        prepared = service.prepare(text)
        for values in bindings:
            expected = engine.run(inline_parameters(text, values)).relation
            for _ in range(2):  # the second run exercises the collection memo
                result = prepared.execute(values)
                assert sorted(r.values for r in result.relation) == sorted(
                    r.values for r in expected
                ), (workload_name, values, backend)
        _assert_page_counters_sane(bibliography_backend, backend)

    @pytest.mark.parametrize("workload_name", sorted(bibliography_parameterized_queries()))
    def test_inlined_bindings_share_a_plan_and_match_cold(
        self, bibliography_backend, workload_name
    ):
        """Lifted literals over the second domain: quoted non-ASCII venue
        names bound to a char array, the same author number lifted twice."""
        text, bindings = bibliography_parameterized_queries()[workload_name]
        engine = QueryEngine(bibliography_backend)
        with connect(bibliography_backend) as connection:
            cursor = connection.cursor()
            for values in bindings + bindings:
                inlined = inline_parameters(text, values)
                rows = cursor.execute(inlined).fetchall()
                assert [r.values for r in rows] == [
                    r.values for r in engine.run(inlined).rows
                ], (workload_name, values)
            info = connection.cache_info()
            assert (info["misses"], info["size"]) == (1, 1), info


# ------------------------------------------------ warm ≡ cold ≡ naive

from repro.engine.collection import CollectionPhase  # noqa: E402
from repro.engine.combination import CombinationPhase  # noqa: E402
from repro.workloads import queries as university_queries  # noqa: E402

PLAN_FLAGS = ("join_order", "semijoin_reduction", "plan")
PLAN_FLAG_MATRIX = list(itertools.product(JOIN_ORDERS, (False, True), ("streamed", "literal")))


def _plan_flags_id(flags) -> str:
    return f"{_flag_id(flags[:2])}-plan={flags[2]}"


def _report(combination) -> tuple:
    """What one execution says about its combination phase, actuals included."""
    if combination is None:
        return ()
    return (
        combination.join_orders,
        combination.reductions,
        [note.describe() for note in combination.operator_notes],
        combination.join_estimates,
        combination.conjunction_sizes,
        combination.union_size,
        combination.peak_tuples,
    )


class TestRepeatedExecutionEquivalence:
    """A repeated execution wires the plan its first one published.

    Every library query of both workloads, the parameterized libraries and
    the five e2e templates: one handle, three executions on statement pins
    of a transaction and three on committed pins.  A statement pin publishes
    no collection result, so each of the first three plans, and so does the
    fourth; the last two reuse what it published — and every one of the six
    must return the naive interpreter's rows, in one order, and tell the
    same story in its report: join orders, reductions, operator notes,
    estimates with *that run's* actual counts, sizes, peak.
    """

    @pytest.fixture(scope="class")
    def requests(self, library_requests):
        """Each library request with the naive interpreter's (sorted) rows."""
        return [
            (database, text, binding, sorted(
                record.values
                for record in execute_naive(database, inline_parameters(text, binding or {}))
            ))
            for database, text, binding in library_requests
        ]

    @pytest.mark.parametrize("flags", PLAN_FLAG_MATRIX, ids=_plan_flags_id)
    def test_three_statement_and_three_committed_executions_agree(self, requests, flags):
        options = StrategyOptions().with_(**dict(zip(PLAN_FLAGS, flags)))
        reused = 0
        for database, text, binding, expected in requests:
            with connect(database, options=options) as connection:
                handle = connection.prepare(text)
                with connection.session() as session:
                    cursors = [session.cursor() for _ in range(3)]
                    cursors += [connection.cursor() for _ in range(3)]
                    runs = []
                    for cursor in cursors:
                        rows = [r.values for r in cursor.execute(handle, binding).fetchall()]
                        runs.append((rows, _report(cursor.result.combination), cursor.result))
            rows, report, _ = runs[0]
            assert sorted(rows) == expected, (text, binding)
            for position, (again, its_report, result) in enumerate(runs):
                assert again == rows, (text, binding, position)
                assert its_report == report, (text, binding, position)
                if result.combination is not None and not result.used_strategy3_fallback:
                    assert result.combination.plan_reused == (position > 3), (text, position)
                    reused += result.combination.plan_reused
        assert reused > len(requests)  # most requests reach the combination phase

    def test_one_collection_result_under_two_option_sets_is_planned_for_each(self, figure1):
        text = university_queries.PUBLISHING_TEACHERS_TEXT
        expected = execute_naive(figure1, text)
        ordered = StrategyOptions.only(
            parallel_collection=True, join_order="histogram", semijoin_reduction=True,
            plan="streamed",
        )
        literal = ordered.with_(join_order="written", semijoin_reduction=False, plan="literal")
        engine = QueryEngine(figure1, ordered)
        plan = engine.prepare(text)
        collection = CollectionPhase(plan, figure1, ordered).run()
        reports = {}
        for options, reused in (
            (ordered, False), (ordered, True), (literal, False), (literal, True), (ordered, False),
        ):
            combination = CombinationPhase(plan, figure1, collection, options).run()
            for _ in combination.stream:
                pass
            assert combination.plan_reused is reused
            relation = engine.execute_plan(plan, options, collection=collection).drain().relation
            assert relation == expected
            assert reports.setdefault(options, _report(combination)) == _report(combination)
        assert reports[ordered][0] != reports[literal][0]  # the two really ordered differently
