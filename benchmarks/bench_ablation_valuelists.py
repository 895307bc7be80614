"""ABL2 — ablation: the value-list shortcuts of Strategy 4 (Section 4.4).

The paper notes that for ``<``/``<=``/``>``/``>=`` join terms only one value
of the quantified relation needs to be stored (maximum for SOME, minimum for
ALL), and for ``ALL`` with ``=`` / ``SOME`` with ``<>`` at most one value
matters.  This benchmark exercises those paths with inequality- and
equality-quantified queries and reports the stored value-list sizes.
"""

import pytest

from repro import QueryEngine, StrategyOptions, build_university_database, execute_naive
from repro.bench.harness import compare_strategies, format_table
from repro.bench.report import print_report
from repro.calculus import builder as q
from repro.engine.collection import DerivedEvaluator
from repro.workloads.queries import SENIORITY_TEXT

WITH_S4 = StrategyOptions.all_strategies()
WITHOUT_S4 = StrategyOptions(collection_phase_quantifiers=False)


def equality_all_query():
    """Employees whose number equals that of *every* 1977 paper's author."""
    return q.selection(
        columns=[("e", "ename")],
        each=[("e", "employees")],
        where=q.all_(
            "p",
            q.range_("papers", q.eq(("p", "pyear"), 1977)),
            q.eq(("e", "enr"), ("p", "penr")),
        ),
    )


def some_not_equal_query():
    """Employees for whom some paper has a different author number."""
    return q.selection(
        columns=[("e", "ename")],
        each=[("e", "employees")],
        where=q.some("p", "papers", q.ne(("e", "enr"), ("p", "penr"))),
    )


QUERIES = {
    "ALL with < (minimum shortcut)": SENIORITY_TEXT,
    "ALL with = (single-value shortcut)": equality_all_query(),
    "SOME with <> (single-value shortcut)": some_not_equal_query(),
}


@pytest.mark.parametrize("query_name", list(QUERIES), ids=list(QUERIES))
@pytest.mark.parametrize(
    "label,options", [("with-S4", WITH_S4), ("without-S4", WITHOUT_S4)]
)
def test_shortcut_queries(benchmark, query_name, label, options):
    database = build_university_database(scale=4)
    engine = QueryEngine(database, options)
    query = QUERIES[query_name]
    result = benchmark(engine.run, query)
    assert result.relation == execute_naive(database, query)


def test_shortcuts_are_detected():
    database = build_university_database(scale=2)
    engine = QueryEngine(database, WITH_S4)
    seniority = engine.prepare(SENIORITY_TEXT)
    assert [p.shortcut() for p in seniority.derived_predicates()] == ["minmax"]
    equality = engine.prepare(equality_all_query())
    assert [p.shortcut() for p in equality.derived_predicates()] == ["single-value"]
    some_ne = engine.prepare(some_not_equal_query())
    assert [p.shortcut() for p in some_ne.derived_predicates()] == ["single-value"]


def test_shortcut_lists_retain_one_value_built_or_reused():
    """The extremes are worked out once per finished list, not per outer
    element — rows, the retained size and the counters do not move, whether
    the list was built by this execution or taken from the database's memo."""
    database = build_university_database(scale=4)
    engine = QueryEngine(database, WITH_S4)
    for query in QUERIES.values():
        expected = execute_naive(database, query)
        built, reused = engine.run(query), engine.run(query)
        assert built.relation == reused.relation == expected
        assert built.statistics["value_lists_built"] == 1
        assert reused.statistics["value_lists_reused"] == 1
        assert built.statistics["intermediate_tuples"] == reused.statistics["intermediate_tuples"]
        (predicate,) = built.prepared.derived_predicates()
        evaluator = DerivedEvaluator(predicate, database, {}, WITH_S4)
        assert evaluator.restricted_count > 1 and evaluator.stored_size() == 1


def test_value_list_queries_avoid_combination_blowup():
    database = build_university_database(scale=4)
    engine = QueryEngine(database)
    for query in QUERIES.values():
        with_s4 = engine.run(query, options=WITH_S4)
        without_s4 = engine.run(query, options=WITHOUT_S4)
        assert with_s4.relation == without_s4.relation
        assert with_s4.combination.peak_tuples <= without_s4.combination.peak_tuples


def test_report_value_list_ablation():
    database = build_university_database(scale=4)
    for query_name, query in QUERIES.items():
        measurements = compare_strategies(
            database,
            query,
            {"without S4 (division)": WITHOUT_S4, "with S4 (value lists)": WITH_S4},
        )
        print_report(f"ABL2 — {query_name}", format_table(measurements))
