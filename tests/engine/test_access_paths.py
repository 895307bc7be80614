"""Unit tests for the cost-based access-path selector and its execution.

Covers the selector's decision rule (probe / scan), the one
cost rule live and pinned reads share, the late-binding contract (the chosen
path is structural, the probe value comes from the bound plan), freshness
across mutations (incrementally maintained indexes keep prepared queries
exact without any rebuild), and the EXPLAIN surfaces.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryEngine, StrategyOptions, connect, execute_naive
from repro.calculus import builder as q
from repro.engine.access import (
    PROBE,
    SCAN,
    decide_access,
    iter_access,
    select_access_path,
)
from repro.types.scalar import INTEGER
from repro.workloads.university import build_university_database


@pytest.fixture(params=("memory", "paged"))
def database(request):
    # ``paged`` is accepted and ignored: both cells hold plain relations.
    return build_university_database(scale=2, paged=(request.param == "paged"))


def _range(relation: str, restriction):
    from repro.calculus.ast import RangeExpr

    return RangeExpr(relation, restriction)


ALL = StrategyOptions.all_strategies()


class TestSelector:
    def test_unrestricted_range_scans(self, database):
        path = select_access_path(database, "e", _range("employees", None), ALL)
        assert path.kind == SCAN

    def test_flag_off_scans(self, database):
        database.create_index("employees", "enr")
        path = select_access_path(
            database,
            "e",
            _range("employees", q.eq(("e", "enr"), 3)),
            ALL.with_(use_index_paths=False),
        )
        assert path.kind == SCAN

    def test_hash_index_probes_equality(self, database):
        database.create_index("employees", "enr")
        path = select_access_path(
            database, "e", _range("employees", q.eq(("e", "enr"), 3)), ALL
        )
        assert path.kind == PROBE
        assert path.index_name == "ind_employees_enr"
        assert path.residual is None

    def test_hash_index_refuses_range_operator(self, database):
        database.create_index("employees", "enr")
        path = select_access_path(
            database, "e", _range("employees", q.comp(("e", "enr"), "<", 3)), ALL
        )
        # No sub-linear hash probe for "<": the plain scan.
        assert path.kind == SCAN

    def test_sorted_index_probes_range_operator(self, database):
        database.create_index("papers", "pyear", operator="<=")
        path = select_access_path(
            database, "p", _range("papers", q.comp(("p", "pyear"), "<=", 1977)), ALL
        )
        assert path.kind == PROBE
        assert path.index_name == "sorted_papers_pyear"

    def test_swapped_operand_orientation(self, database):
        database.create_index("employees", "enr")
        path = select_access_path(
            database, "e", _range("employees", q.comp(1977, "=", ("e", "enr"))), ALL
        )
        assert path.kind == PROBE

    def test_residual_conjunct_survives(self, database):
        database.create_index("employees", "enr")
        restriction = q.and_(
            q.eq(("e", "enr"), 3), q.eq(("e", "estatus"), "professor")
        )
        path = select_access_path(database, "e", _range("employees", restriction), ALL)
        assert path.kind == PROBE
        assert path.residual is not None
        rows = list(iter_access(database, path, "e"))
        expected = [
            record
            for record in database.relation("employees").elements()
            if record["enr"] == 3 and str(record["estatus"]) == "professor"
        ]
        assert [record for _, record in rows] == expected

    def test_probe_enumerates_exactly_the_range(self, database):
        database.create_index("employees", "enr")
        path = select_access_path(
            database, "e", _range("employees", q.eq(("e", "enr"), 3)), ALL
        )
        rows = [record for _, record in iter_access(database, path, "e")]
        assert [record["enr"] for record in rows] == [3]
        assert database.statistics.index_probes > 0


@lru_cache(maxsize=None)
def zipf_database() -> Database:
    """``skewed``: 40 values of ``h`` (hash index) and ``s`` (sorted index)
    with multiplicities 120 / rank — value 0 holds a quarter of the rows."""
    values = [v for v in range(40) for _ in range(max(120 // (v + 1), 1))]
    database = Database("zipf")
    database.create_relation(
        "skewed", [("k", INTEGER), ("h", INTEGER), ("s", INTEGER), ("b", INTEGER)], key=["k"],
        elements=[{"k": k, "h": v, "s": 39 - v, "b": k % 5} for k, v in enumerate(values)],
    )
    database.create_index("skewed", "h")
    database.create_index("skewed", "s", operator="<=")
    return database


#: Hot (0 and 39 are the heads of ``h`` and ``s``), middling, cold and absent.
CONSTANTS = st.sampled_from([0, 1, 5, 20, 38, 39, 99])
CONJUNCTS = st.tuples(
    st.sampled_from(["h", "s", "b"]), st.sampled_from(["=", "<", "<=", ">", ">="]), CONSTANTS
)


@settings(max_examples=60, deadline=None)
@given(conjuncts=st.lists(CONJUNCTS, min_size=1, max_size=3))
def test_live_and_pinned_reads_share_one_access_path_rule(conjuncts):
    """On a Zipf-skewed relation, the live database decides a range exactly
    as a pin that already holds the index views does — kind, probed conjunct
    and estimate — however hot the compared constant, and the live decision
    is settled (a selection's plan keeps it)."""
    database = zipf_database()
    range_expr = _range("skewed", q.and_(*(q.comp(("x", f), op, c) for f, op, c in conjuncts)))
    live = decide_access(database, "x", range_expr, ALL)
    with database.pin_snapshot() as pin:
        for field in ("h", "s"):
            pin.index_for("skewed", field)  # the pin's second sight: its views are built
        pinned = decide_access(pin, "x", range_expr, ALL)
    assert (live.kind, live.position, live.cost) == (pinned.kind, pinned.position, pinned.cost)
    assert live.settled and pinned.settled


class TestQueriesThroughIndexPaths:
    POINT = "[<e.ename> OF EACH e IN employees : (e.enr = $enr)]"

    def test_point_query_skips_the_scan(self, database):
        database.create_index("employees", "enr")
        service = connect(database).service
        prepared = service.prepare(self.POINT)
        # A pin scans, then builds the index view, then probes it.
        for _ in range(3):
            result = prepared.execute({"enr": 5})
        assert result.statistics["relations"]["employees"]["scans"] == 0
        assert result.statistics["index_probes"] > 0
        assert "probe ind_employees_enr" in result.access_paths["e"]

    def test_late_binding_probes_fresh_value_per_execution(self, database):
        database.create_index("employees", "enr")
        service = connect(database).service
        prepared = service.prepare(self.POINT)
        engine = QueryEngine(database)
        for enr in (1, 5, 9):
            got = prepared.execute({"enr": enr}).relation
            expected = engine.run(
                f"[<e.ename> OF EACH e IN employees : (e.enr = {enr})]"
            ).relation
            assert sorted(r.values for r in got) == sorted(r.values for r in expected)

    def test_mutations_keep_prepared_results_fresh_without_rebuild(self, database):
        """Insert/delete after prepare: the next execution answers exactly —
        its pin derives the index of the contents it reads; nobody rebuilds."""
        database.create_index("employees", "enr")
        service = connect(database).service
        prepared = service.prepare(self.POINT)
        assert len(prepared.execute({"enr": 999}).relation) == 0
        employees = database.relation("employees")
        employees.insert({"enr": 999, "ename": "Newcomer", "estatus": "professor"})
        assert len(prepared.execute({"enr": 999}).relation) == 1
        employees.delete_key(999)
        assert len(prepared.execute({"enr": 999}).relation) == 0

    def test_derived_predicate_inner_range_probes(self, database):
        """A Strategy 4 value-list build over a restricted inner range uses
        the index instead of scanning the inner relation.

        Compiled by the service (deferred Lemma 1 adaptation) so the
        compile-time emptiness check does not scan papers either, and run by
        the engine door on the database, whose permanent index is built:
        execution must not touch the inner relation beyond the probed matches.
        """
        database.create_index("papers", "pyear")
        text = (
            "[<e.ename> OF EACH e IN employees: "
            "SOME p IN [EACH p IN papers: (p.pyear = 1977)] (p.penr = e.enr)]"
        )
        plan = connect(database).prepare(text).plan
        result = QueryEngine(database).execute_plan(plan).drain()
        assert result.statistics["relations"]["papers"]["scans"] == 0
        assert result.statistics["index_probes"] > 0
        expected = execute_naive(database, text)
        assert result.relation == expected

    def test_probe_demoted_when_relation_is_shared_scanned_anyway(self, database):
        """Two variables over one relation, only one probe-able: under
        Strategy 1 the relation is scanned in full for the other variable,
        so probing would only add cost — the probe rides the shared scan."""
        database.create_index("employees", "enr")
        text = (
            "[<e.ename, m.ename> OF EACH e IN employees, EACH m IN employees : "
            "(e.enr = 5) AND (e.estatus = m.estatus)]"
        )
        result = QueryEngine(database).run(text)
        assert result.relation == execute_naive(database, text)
        assert "shared scan already required" in result.access_paths["e"]
        assert result.statistics["relations"]["employees"]["scans"] == 1
        # Without Strategy 1 each structure enumerates on its own, so the
        # probe is worth it again and stays a probe.
        sequential = QueryEngine(
            database, StrategyOptions.only(use_index_paths=True, extended_ranges=True)
        ).run(text)
        assert sequential.relation == execute_naive(database, text)
        assert "probe ind_employees_enr" in sequential.access_paths["e"]

    def test_false_matrix_reports_no_access_paths(self, database):
        # Lemma 1: SOME over an empty relation collapses the matrix to FALSE.
        database.relation("papers").clear()
        result = QueryEngine(database).run(
            "[<e.ename> OF EACH e IN employees : SOME p IN papers ((p.penr = e.enr))]"
        )
        assert len(result.relation) == 0
        assert result.access_paths == {}

    def test_unoptimised_engine_keeps_scanning(self, database):
        database.create_index("employees", "enr")
        result = QueryEngine(database, StrategyOptions.none()).run(
            "[<e.ename> OF EACH e IN employees : (e.enr = 5)]"
        )
        assert result.statistics["relations"]["employees"]["scans"] >= 1
        expected = execute_naive(
            database, "[<e.ename> OF EACH e IN employees : (e.enr = 5)]"
        )
        assert result.relation == expected


class TestExplainSurfaces:
    def test_static_explain_shows_chosen_path(self, database):
        database.create_index("employees", "enr")
        report = QueryEngine(database).explain(
            "[<e.ename> OF EACH e IN employees : (e.enr = 5)]"
        )
        assert "access paths:" in report
        assert "probe ind_employees_enr" in report

    def test_analyze_shows_counters(self, database):
        database.create_index("employees", "enr")
        report = QueryEngine(database).explain(
            "[<e.ename> OF EACH e IN employees : (e.enr = 5)]", analyze=True
        )
        assert "access paths (analyzed):" in report
        assert "index probes=" in report
        assert "pages skipped=" not in report

    def test_unbound_parameter_shown_in_static_explain(self, database):
        database.create_index("employees", "enr")
        service = connect(database).service
        prepared = service.prepare("[<e.ename> OF EACH e IN employees : (e.enr = $x)]")
        from repro.engine.explain import explain_prepared

        report = explain_prepared(prepared.plan, database, prepared.options)
        assert "$x" in report and "probe ind_employees_enr" in report

    def test_prepared_query_exposes_access_paths(self, database):
        database.create_index("employees", "enr")
        service = connect(database).service
        prepared = service.prepare("[<e.ename> OF EACH e IN employees : (e.enr = $x)]")
        paths = prepared.access_paths()
        assert "probe ind_employees_enr" in paths["e"]
        assert "$x" in paths["e"]
        scan_plan = service.prepare(
            "[<e.ename> OF EACH e IN employees : (e.enr = $x)]",
            StrategyOptions().with_(use_index_paths=False),
        )
        assert scan_plan.access_paths()["e"] == "scan employees"


class TestStatisticsCounters:
    def test_new_counters_snapshot_and_reset(self, database):
        """No writer maintains an index and a ready build — the engine door's
        pin deriving a view after a write — charges no scan, no element read
        and no maintenance: ``index_maintenance_ops`` is kept at 0 beside the
        page counters, for the benchmark harness."""
        stats = database.statistics
        database.create_index("employees", "enr")
        employees = database.relation("employees")
        employees.assign(employees.elements())  # past the published build
        stats.reset()
        with database.pin_snapshot(ready=True) as door:
            assert len(door.index_for("employees", "enr")) == len(employees)
            assert door.statistics.as_dict()["relations"] == {}
        snapshot = stats.as_dict()
        assert snapshot["index_maintenance_ops"] == 0
        assert snapshot["pages_skipped"] == 0
        assert snapshot["relations"] == {}
        stats.record_index_probe("employees", 3)
        stats.reset()
        assert stats.index_maintenance_ops == 0
        assert stats.index_probes == 0
