"""The service-level PreparedQuery: lifecycle, late binding, memo safety."""

import pytest

from repro import StrategyOptions, build_university_database, connect, execute_naive
from repro.calculus.typecheck import resolve_selection
from repro.errors import BindingError
from repro.lang.parser import parse_selection
from repro.service import bind_selection, check_bindings, collect_parameters
from repro.workloads.queries import (
    NO_PAPERS_IN_YEAR_PARAM_TEXT,
    RUNNING_QUERY_PARAM_TEXT,
    STATUS_PARAM_TEXT,
    parameterized_queries,
)


def naive_reference(database, text, values):
    """Ground truth: bind into a freshly parsed query, evaluate naively."""
    selection = resolve_selection(parse_selection(text), database)
    coerced = check_bindings(collect_parameters(selection), values)
    return execute_naive(database, bind_selection(selection, coerced))


class TestLifecycle:
    def test_prepare_records_the_transformation_trace(self, figure1):
        service = connect(figure1).service
        prepared = service.prepare(RUNNING_QUERY_PARAM_TEXT)
        assert prepared.trace.names()  # resolve happened before prepare_query
        assert prepared.is_parameterized()
        assert prepared.parameter_names == ("level", "status", "year")

    def test_every_workload_binding_matches_fresh_naive_evaluation(self, figure1):
        service = connect(figure1).service
        for name, (text, bindings) in parameterized_queries().items():
            prepared = service.prepare(text)
            for values in bindings:
                result = prepared.execute(values)
                assert result.relation == naive_reference(figure1, text, values), (
                    name,
                    values,
                )

    def test_repeated_execution_uses_the_collection_memo(self, figure1):
        service = connect(figure1).service
        prepared = service.prepare(NO_PAPERS_IN_YEAR_PARAM_TEXT)
        first = prepared.execute({"year": 1977})
        second = prepared.execute({"year": 1977})
        assert second.relation == first.relation
        # The second run reused the collected structures: no relation scans.
        assert sum(
            counters["scans"] for counters in second.statistics["relations"].values()
        ) < sum(counters["scans"] for counters in first.statistics["relations"].values())

    def test_distinct_bindings_never_share_collection_structures(self, figure1):
        """The binding-leak regression: each binding set gets its own result."""
        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        professors = prepared.execute({"status": "professor"}).relation
        students = prepared.execute({"status": "student"}).relation
        professors_again = prepared.execute({"status": "professor"}).relation
        assert professors == naive_reference(figure1, STATUS_PARAM_TEXT, {"status": "professor"})
        assert students == naive_reference(figure1, STATUS_PARAM_TEXT, {"status": "student"})
        assert professors_again == professors
        assert professors != students

    def test_data_mutation_invalidates_the_collection_memo(self, figure1):
        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        before = prepared.execute({"status": "professor"}).relation
        figure1.relation("employees").insert(
            {"enr": 9001, "ename": "NewProf", "estatus": "professor"}
        )
        after = prepared.execute({"status": "professor"}).relation
        assert len(after) == len(before) + 1
        assert after == naive_reference(figure1, STATUS_PARAM_TEXT, {"status": "professor"})

    def test_stale_detection_after_catalog_change(self, figure1):
        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        assert not prepared.is_stale()
        figure1.create_index("employees", "enr")
        assert prepared.is_stale()

    def test_stale_prepared_query_refuses_to_execute(self, figure1):
        from repro.errors import PlanError

        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        figure1.create_index("employees", "enr")
        with pytest.raises(PlanError, match="stale"):
            prepared.execute({"status": "professor"})
        # Re-preparing through the service picks up the new catalog version.
        fresh = service.prepare(STATUS_PARAM_TEXT)
        assert fresh.execute({"status": "professor"}).relation == naive_reference(
            figure1, STATUS_PARAM_TEXT, {"status": "professor"}
        )

    @pytest.mark.parametrize("door", ["connection cursor", "session cursor",
                                      "handle.execute", "executemany"])
    @pytest.mark.parametrize("change", ["create_index", "drop_index", "emptiness flip"])
    def test_one_staleness_rule_through_every_door(self, figure1, door, change):
        """A held handle the database has moved past is refused on the live
        database and on a pin alike; the same *text*, re-sent, keeps working."""
        from repro.errors import PlanError

        text = (
            "[<e.ename> OF EACH e IN employees: (e.estatus = $status) AND "
            "ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]"
        )
        values = {"status": "professor"}
        if change == "drop_index":
            figure1.create_index("employees", "enr")
        connection = connect(figure1)
        session = connection.session()

        def through_a_handle(query):
            handle = connection.prepare(query) if isinstance(query, str) else query
            return handle.execute(values).rows

        run = {
            "connection cursor": lambda q: connection.cursor().execute(q, values).fetchall(),
            "session cursor": lambda q: session.cursor().execute(q, values).fetchall(),
            "handle.execute": through_a_handle,
            "executemany": lambda q: connection.executemany(q, [values]).fetchall(),
        }[door]
        prepared = connection.prepare(text)
        before = [r.values for r in run(prepared)]
        assert before == [r.values for r in naive_reference(figure1, text, values)]
        if change == "create_index":
            figure1.create_index("employees", "enr")
        elif change == "drop_index":
            figure1.drop_index("employees", "enr")
        else:
            figure1.relation("papers").clear()  # the ALL over papers is now vacuous
        assert prepared.is_stale()
        with pytest.raises(PlanError, match="stale"):
            run(prepared)
        assert figure1._snapshots.active == 0
        assert [r.values for r in run(text)] == [
            r.values for r in naive_reference(figure1, text, values)
        ]
        connection.close()

    def test_emptiness_transition_staleness_on_held_handles(self, figure1):
        """A plan compiled while a relation was empty baked in the Lemma 1
        adaptation; when the relation refills, the held handle must refuse to
        run the now-wrong constant plan."""
        from repro.errors import PlanError

        papers = figure1.relation("papers")
        saved = list(papers.elements())
        papers.assign([])
        service = connect(figure1).service
        text = "[<e.ename> OF EACH e IN employees: ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]"
        prepared = service.prepare(text)
        assert prepared.execute().relation == execute_naive(figure1, text)
        papers.assign(saved)  # papers: empty -> non-empty
        assert prepared.is_stale()
        with pytest.raises(PlanError, match="stale"):
            prepared.execute()
        # Re-preparing through the service is keyed on the emptiness signature:
        assert service.execute(text).relation == execute_naive(figure1, text)

    def test_unrelated_emptiness_transition_does_not_stale_the_handle(self, figure1):
        """Clearing a relation the query never ranges over must not break a
        held prepared handle (staleness is restricted to referenced ranges)."""
        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)  # ranges over employees only
        assert prepared.referenced_relations == frozenset({"employees"})
        courses = figure1.relation("courses")
        saved = list(courses.elements())
        courses.assign([])
        assert not prepared.is_stale()
        assert prepared.execute({"status": "professor"}).relation == naive_reference(
            figure1, STATUS_PARAM_TEXT, {"status": "professor"}
        )
        courses.assign(saved)

    def test_batch_refuses_stale_prepared_handles(self, figure1):
        from repro.errors import PlanError

        service = connect(figure1).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        figure1.create_index("employees", "enr")
        with pytest.raises(PlanError, match="stale"):
            service.execute_batch([(prepared, {"status": "professor"})])

    def test_warm_memo_does_not_bypass_binding_validation(self, figure1):
        """1977.0 == 1977 with equal hashes; validation must still reject it
        even when the 1977 memo entry is warm."""
        prepared = connect(figure1).service.prepare(NO_PAPERS_IN_YEAR_PARAM_TEXT)
        prepared.execute({"year": 1977})
        with pytest.raises(BindingError):
            prepared.execute({"year": 1977.0})
        with pytest.raises(BindingError):
            prepared.execute({"year": True})

    def test_every_occurrence_type_is_enforced(self, figure1):
        """A parameter shared by comparably-typed components must satisfy the
        type of each occurrence, like the literal-constant equivalent."""
        text = """
        [<e.ename> OF EACH e IN employees:
            (e.enr = $n) AND SOME p IN papers ((p.pyear = $n))]
        """
        prepared = connect(figure1).service.prepare(text)
        with pytest.raises(BindingError, match="yeartype"):
            prepared.execute({"n": 3})  # valid enumbertype, outside yeartype
        result = prepared.execute({"n": 1977})  # hits no employee, but valid
        assert result.relation == naive_reference(figure1, text, {"n": 1977})

    def test_restricted_range_satisfiability_changes_stay_correct(self, figure1):
        """A cached plan must not bake in restricted-range satisfiability:
        the service defers that decision to the runtime fallback, so data
        changes inside a non-empty relation cannot stale the plan."""
        text = (
            "[<e.ename> OF EACH e IN employees: "
            "ALL p IN [EACH p IN papers: (p.pyear = 1990)] (e.enr <> p.penr)]"
        )
        service = connect(figure1).service
        prepared = service.prepare(text)
        # No 1990 papers: the runtime fallback handles the empty instantiation.
        empty = prepared.execute()
        assert empty.used_strategy3_fallback
        assert empty.relation == execute_naive(figure1, text)
        # Insert a matching paper (papers stays non-empty, catalog unchanged).
        record = figure1.relation("papers").insert(
            {"penr": 1, "pyear": 1990, "ptitle": "On Staleness"}
        )
        assert not prepared.is_stale()
        assert prepared.execute().relation == execute_naive(figure1, text)
        # And back out again.
        assert figure1.relation("papers").delete(record)
        assert prepared.execute().relation == execute_naive(figure1, text)

    def test_parameterized_extended_range_uses_runtime_fallback(self, figure1):
        """A $param inside a user-written extended range cannot be decided at
        prepare time; an empty instantiation must take the Strategy 3
        fallback at execution instead of failing at prepare."""
        text = """
        [<e.ename> OF EACH e IN employees:
            ALL p IN [EACH p IN papers: (p.pyear = $year)] (e.enr <> p.penr)]
        """
        prepared = connect(figure1).service.prepare(text)
        empty_year = prepared.execute({"year": 1901})  # no 1901 papers
        assert empty_year.used_strategy3_fallback
        assert empty_year.relation == naive_reference(figure1, text, {"year": 1901})
        assert prepared.execute({"year": 1977}).relation == naive_reference(
            figure1, text, {"year": 1977}
        )

    def test_service_execute_snapshots_plan_cache_counters(self, figure1):
        """The hit/miss of this very request survives into result.statistics."""
        service = connect(figure1).service
        first = service.execute(STATUS_PARAM_TEXT, {"status": "professor"})
        assert first.statistics["plan_cache_misses"] == 1
        assert first.statistics["plan_cache_hits"] == 0
        second = service.execute(STATUS_PARAM_TEXT, {"status": "student"})
        assert second.statistics["plan_cache_hits"] == 1
        assert second.statistics["plan_cache_misses"] == 0

    @pytest.mark.parametrize("door", ["connection cursor", "session cursor"])
    def test_a_cursor_reports_its_own_plan_cache_lookup(self, figure1, door):
        """A pinned execution's counters carry its own plan-cache hit or miss:
        the lookup charges the pin's tracker, not the database's."""
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = $s)]"
        connection = connect(figure1)
        cursor = (connection if door == "connection cursor" else connection.session()).cursor()
        seen = []
        for status in ("professor", "student"):
            cursor.execute(text, {"s": status}).fetchall()
            statistics = cursor.statistics
            seen.append((statistics["plan_cache_hits"], statistics["plan_cache_misses"]))
        assert seen == [(0, 1), (1, 0)]
        # ... and the database's tracker still gets them, when the pins are released.
        assert (figure1.statistics.plan_cache_hits, figure1.statistics.plan_cache_misses) == (1, 1)
        connection.close()


class TestBindingValidation:
    def test_missing_binding_raises(self, figure1):
        prepared = connect(figure1).service.prepare(RUNNING_QUERY_PARAM_TEXT)
        with pytest.raises(BindingError):
            prepared.execute({"status": "professor"})

    def test_binding_for_parameterless_query_raises(self, figure1):
        prepared = connect(figure1).service.prepare(
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]"
        )
        with pytest.raises(BindingError):
            prepared.execute({"status": "professor"})

    def test_parameterless_query_executes_without_bindings(self, figure1):
        prepared = connect(figure1).service.prepare(
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]"
        )
        expected = execute_naive(
            figure1,
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]",
        )
        assert prepared.execute().relation == expected

    def test_unhashable_binding_values_still_execute(self, figure1):
        """Unkeyable bindings skip the memos but must stay correct."""

        class OddInt(int):
            __hash__ = None  # type: ignore[assignment]

        prepared = connect(figure1).service.prepare(NO_PAPERS_IN_YEAR_PARAM_TEXT)
        result = prepared.execute({"year": OddInt(1977)})
        assert result.relation == naive_reference(
            figure1, NO_PAPERS_IN_YEAR_PARAM_TEXT, {"year": 1977}
        )


class TestStrategyIndependence:
    @pytest.mark.parametrize(
        "options",
        [
            StrategyOptions.all_strategies(),
            StrategyOptions.none(),
            StrategyOptions.only(parallel_collection=True, one_step_nested=True),
            StrategyOptions(separate_existential_conjunctions=True),
        ],
        ids=["all", "none", "s1+s2", "separated"],
    )
    def test_prepared_execution_matches_naive_under_every_configuration(
        self, figure1, options
    ):
        service = connect(figure1, options=options).service
        for name, (text, bindings) in parameterized_queries().items():
            prepared = service.prepare(text)
            for values in bindings:
                for _ in range(2):
                    assert prepared.execute(values).relation == naive_reference(
                        figure1, text, values
                    ), (name, values)

    def test_collection_memo_disabled_still_matches(self):
        database = build_university_database(scale=1)
        from repro.config import ServiceOptions

        service = connect(
            database, service_options=ServiceOptions(collection_cache_size=0)
        ).service
        prepared = service.prepare(STATUS_PARAM_TEXT)
        for _ in range(2):
            assert prepared.execute({"status": "professor"}).relation == naive_reference(
                database, STATUS_PARAM_TEXT, {"status": "professor"}
            )


class TestCombinationPlanLifetime:
    """The combination plan lives and dies with its collection-memo entry."""

    #: Strategy 1 only, so the dyadic structures reach the combination phase.
    OPTIONS = StrategyOptions.only(
        parallel_collection=True, join_order="histogram", semijoin_reduction=True,
        plan="streamed",
    )
    TEXT = (
        "[<e.ename> OF EACH e IN employees: SOME p IN papers "
        "((e.enr = p.penr) AND (p.pyear = 1977))]"
    )

    @staticmethod
    def _plans(cursor) -> tuple[int, int]:
        statistics = cursor.statistics
        return statistics["combination_plans_built"], statistics["combination_plans_reused"]

    def test_a_commit_to_a_read_relation_plans_again_an_unrelated_one_does_not(self, figure1):
        connection = connect(figure1, options=self.OPTIONS)
        cursor = connection.cursor()
        before = cursor.execute(self.TEXT).fetchall()
        assert self._plans(cursor) == (1, 0)
        assert cursor.statistics["reduced_tuples"] > 0
        assert cursor.execute(self.TEXT).fetchall() == before
        assert self._plans(cursor) == (0, 1)
        assert cursor.statistics["reduced_tuples"] == 0  # counters count work done
        assert cursor.result.combination.reductions  # ... the report comes from the plan

        with connection.session():
            figure1.relation("courses").insert({"cnr": 99, "clevel": "senior", "ctitle": "Plans"})
        assert cursor.execute(self.TEXT).fetchall() == before
        assert self._plans(cursor) == (0, 1)

        with connection.session():
            figure1.relation("papers").insert({"penr": 3, "pyear": 1977, "ptitle": "Wires"})
        after = cursor.execute(self.TEXT).fetchall()
        assert self._plans(cursor) == (1, 0)
        assert len(after) == len(before) + 1
        assert {r.values for r in after} == {r.values for r in execute_naive(figure1, self.TEXT)}
        connection.close()

    def test_drift_plans_again_under_the_one_compiled_plan(self, figure1):
        connection = connect(figure1, options=self.OPTIONS)
        handle = connection.prepare(self.TEXT)
        compiled = handle._plan
        cursor = connection.cursor()
        cursor.execute(handle).fetchall()
        cursor.execute(handle).fetchall()
        assert self._plans(cursor) == (0, 1)
        combination_plan = cursor.result.collection.combination_plan

        with connection.session():
            figure1.relation("papers").insert({"penr": 3, "pyear": 1977, "ptitle": "Drift"})
        after = cursor.execute(handle).fetchall()
        assert self._plans(cursor) == (1, 0)
        assert cursor.result.collection.combination_plan is not combination_plan
        assert handle._plan is compiled  # the join order moves, the plan is never replaced
        assert {r.values for r in after} == {r.values for r in execute_naive(figure1, self.TEXT)}
        connection.close()

    def test_a_cursor_closed_after_one_fetch_leaves_a_plan_the_next_drains(self, figure1):
        connection = connect(figure1, options=self.OPTIONS)
        expected = {r.values for r in execute_naive(figure1, self.TEXT)}
        assert len(expected) > 1
        first = connection.cursor().execute(self.TEXT)
        assert first.fetchone() is not None
        first.close()  # hash tables it built stay; its generators are gone
        second = connection.cursor().execute(self.TEXT)
        assert {r.values for r in second.fetchall()} == expected
        assert self._plans(second) == (0, 1)
        connection.close()

    def test_a_strategy_3_fallback_is_never_memoized_so_never_reused(self, figure1):
        text = (
            "[<e.ename> OF EACH e IN employees: SOME t IN timetable ((e.enr = t.tenr) AND "
            "ALL p IN [EACH p IN papers: (p.pyear = 1990)] ((e.enr <> p.penr)))]"
        )
        prepared = connect(figure1).service.prepare(text)
        for _ in range(3):
            result = prepared.execute()
            assert result.used_strategy3_fallback
            assert result.relation == execute_naive(figure1, text)
            assert not result.combination.plan_reused
            assert result.statistics["combination_plans_built"] == 1
            assert result.statistics["combination_plans_reused"] == 0
