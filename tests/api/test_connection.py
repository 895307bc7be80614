"""The connection front door: lifecycle, option plumbing, argument checks."""

from __future__ import annotations

import pytest

from repro import (
    ConnectionClosedError,
    CursorError,
    ServiceOptions,
    StrategyOptions,
    connect,
    execute_naive,
)
from repro.errors import BindingError, PlanError
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    PROFESSORS_TEXT,
    STATUS_PARAM_TEXT,
)


class TestConnectionLifecycle:
    def test_connect_executes_and_fetches(self, figure1):
        connection = connect(figure1)
        rows = connection.execute(PROFESSORS_TEXT).fetchall()
        expected = execute_naive(figure1, PROFESSORS_TEXT)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected)

    def test_context_manager_closes(self, figure1):
        with connect(figure1) as connection:
            assert not connection.closed
        assert connection.closed

    def test_double_close_is_a_noop(self, figure1):
        connection = connect(figure1)
        connection.close()
        connection.close()
        assert connection.closed

    def test_closed_connection_refuses_work(self, figure1):
        connection = connect(figure1)
        cursor = connection.cursor()
        connection.close()
        with pytest.raises(ConnectionClosedError):
            connection.cursor()
        with pytest.raises(ConnectionClosedError):
            connection.session()
        with pytest.raises(ConnectionClosedError):
            connection.prepare(PROFESSORS_TEXT)
        with pytest.raises(ConnectionClosedError):
            cursor.execute(PROFESSORS_TEXT)

    def test_close_rolls_back_active_transaction(self, figure1):
        connection = connect(figure1)
        employees = figure1.relation("employees")
        before = len(employees)
        session = connection.session()
        session.begin()
        employees.delete_key(employees.keys()[0])
        connection.close()
        assert len(employees) == before
        assert not figure1.in_transaction

    def test_connection_owns_service_and_cache(self, figure1):
        connection = connect(figure1, service_options=ServiceOptions(plan_cache_capacity=3))
        connection.prepare(PROFESSORS_TEXT)
        connection.prepare(PROFESSORS_TEXT)
        info = connection.cache_info()
        assert info["size"] == 1
        assert info["capacity"] == 3
        assert info["hits"] >= 1


class TestOptionPlumbing:
    def test_connection_options_become_defaults(self, figure1):
        legacy = connect(figure1, options=StrategyOptions.none())
        assert legacy.options == StrategyOptions.none()
        result = legacy.execute(EXAMPLE_21_TEXT).fetchall()
        expected = execute_naive(figure1, EXAMPLE_21_TEXT)
        assert sorted(r.values for r in result) == sorted(r.values for r in expected)

    def test_session_option_overrides_share_the_plan_cache(self, figure1):
        connection = connect(figure1)
        session = connection.session(options=StrategyOptions.none())
        assert session.options == StrategyOptions.none()
        assert session._service is not connection.service
        assert session._service.cache is connection.service.cache
        assert session._service.engine is connection.service.engine
        rows = session.execute(EXAMPLE_21_TEXT).fetchall()
        expected = execute_naive(figure1, EXAMPLE_21_TEXT)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected)

    def test_session_service_option_overrides(self, figure1):
        connection = connect(figure1)
        session = connection.session(service_options=ServiceOptions(busy_timeout=0.5))
        assert session.service_options.busy_timeout == 0.5
        assert connection.service.service_options.busy_timeout == 0.0
        cursor = session.cursor()
        assert cursor.arraysize == 1
        cursor.arraysize = 5  # DB-API: the fetchmany() default is per cursor
        cursor.execute(PROFESSORS_TEXT)
        batch = cursor.fetchmany()
        assert len(batch) <= 5

    def test_session_cannot_resize_the_shared_plan_cache(self, figure1):
        # A session shares its connection's plan cache, so a capacity it asks
        # for could only be ignored: running one text twice would still hit.
        connection = connect(figure1)
        with pytest.raises(PlanError, match="plan_cache_capacity=0"):
            connection.session(service_options=ServiceOptions(plan_cache_capacity=0))
        assert connection.cache_info()["size"] == 0
        same = connection.session(service_options=ServiceOptions(plan_cache_capacity=128))
        cursor = same.cursor()
        cursor.execute(PROFESSORS_TEXT)
        cursor.execute(PROFESSORS_TEXT)
        info = connection.cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)

    def test_parameterized_execution_through_cursor(self, figure1):
        connection = connect(figure1)
        cursor = connection.execute(STATUS_PARAM_TEXT, {"status": "professor"})
        rows = cursor.fetchall()
        expected = execute_naive(figure1, PROFESSORS_TEXT)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected)


class TestExecutemany:
    def test_results_concatenate_in_request_order(self, figure1):
        connection = connect(figure1)
        cursor = connection.executemany(
            STATUS_PARAM_TEXT,
            [{"status": "professor"}, {"status": "student"}],
        )
        professors = connection.execute(
            STATUS_PARAM_TEXT, {"status": "professor"}
        ).fetchall()
        students = connection.execute(
            STATUS_PARAM_TEXT, {"status": "student"}
        ).fetchall()
        expected = [r.values for r in professors + students]
        assert [r.values for r in cursor.fetchall()] == expected

    def test_rowcount_known_immediately(self, figure1):
        connection = connect(figure1)
        cursor = connection.executemany(STATUS_PARAM_TEXT, [{"status": "professor"}])
        assert cursor.rowcount >= 0

    def test_empty_binding_sequence(self, figure1):
        connection = connect(figure1)
        cursor = connection.executemany(STATUS_PARAM_TEXT, [])
        assert cursor.fetchall() == []
        assert cursor.rowcount == 0


class TestArgumentTypes:
    """What is no query or no binding set is refused with a ``repro.errors``
    type at the one admit point — before anything is pinned or compiled."""

    BAD_QUERIES = [123, None, b"[<e.ename> OF EACH e IN employees: true]", ["x"]]
    BAD_PARAMETERS = [[1], "abc", 5]

    @staticmethod
    def _doors(connection, session):
        """Every way a request reaches the service, as ``call(query, parameters)``."""
        return {
            "connection cursor": lambda q, p: connection.cursor().execute(q, p),
            "session cursor": lambda q, p: session.cursor().execute(q, p),
            "service.execute": lambda q, p: connection.service.execute(q, p),
            "executemany": lambda q, p: connection.executemany(q, [p]),
            "execute_batch": lambda q, p: connection.service.execute_batch([(q, p)]),
        }

    DOORS = ["connection cursor", "session cursor", "service.execute", "executemany",
             "execute_batch"]

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("query", BAD_QUERIES, ids=repr)
    def test_what_is_no_query_is_a_plan_error(self, figure1, door, query):
        with connect(figure1) as connection:
            pins = figure1._snapshots.epoch
            call = self._doors(connection, connection.session())[door]
            with pytest.raises(PlanError, match="a query is a text"):
                call(query, None)
            assert figure1._snapshots.epoch == pins  # refused before the pin
            assert figure1._snapshots.active == 0

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("parameters", BAD_PARAMETERS, ids=repr)
    def test_parameters_that_are_no_mapping_are_a_binding_error(
        self, figure1, door, parameters
    ):
        with connect(figure1) as connection:
            pins = figure1._snapshots.epoch
            call = self._doors(connection, connection.session())[door]
            with pytest.raises(BindingError, match="parameters are a mapping"):
                call(STATUS_PARAM_TEXT, parameters)
            assert figure1._snapshots.epoch == pins
            assert figure1._snapshots.active == 0
            # The door still works, and None stays "no parameters".
            rows = connection.execute(STATUS_PARAM_TEXT, {"status": "professor"}).fetchall()
            assert rows and connection.execute(PROFESSORS_TEXT, None).fetchall()

    @pytest.mark.parametrize(
        "malformed",
        [(PROFESSORS_TEXT,), (PROFESSORS_TEXT, None, 1), ["x"]],
        ids=["a 1-tuple", "a 3-tuple", "a 1-list"],
    )
    def test_a_batch_request_of_the_wrong_length_is_a_plan_error(self, figure1, malformed):
        with connect(figure1) as connection:
            pins = figure1._snapshots.epoch
            # The good request ahead of it is not compiled either.
            with pytest.raises(PlanError, match="a batch request is a query or a"):
                connection.service.execute_batch([EXAMPLE_21_TEXT, malformed])
            assert figure1._snapshots.epoch == pins
            assert connection.cache_info()["misses"] == 0

    @pytest.mark.parametrize("requests", [None, 5], ids=repr)
    def test_a_batch_that_is_no_iterable_is_a_plan_error(self, figure1, requests):
        with connect(figure1) as connection:
            with pytest.raises(PlanError, match="a batch is an iterable of requests"):
                connection.service.execute_batch(requests)

    @pytest.mark.parametrize("seq_of_parameters", [None, 5], ids=repr)
    def test_bindings_that_are_no_iterable_are_a_binding_error(self, figure1, seq_of_parameters):
        with connect(figure1) as connection:
            pins = figure1._snapshots.epoch
            with pytest.raises(BindingError, match="an iterable of binding sets"):
                connection.executemany(STATUS_PARAM_TEXT, seq_of_parameters)
            assert figure1._snapshots.epoch == pins
            assert connection.cache_info()["misses"] == 0


class TestCursorProtocol:
    def test_fetch_before_execute_raises(self, figure1):
        cursor = connect(figure1).cursor()
        with pytest.raises(CursorError):
            cursor.fetchone()

    def test_closed_cursor_refuses_fetches(self, figure1):
        # A closed *cursor* is a cursor-protocol error (CursorError); only a
        # closed *connection* raises ConnectionClosedError.
        connection = connect(figure1)
        cursor = connection.execute(PROFESSORS_TEXT)
        cursor.close()
        cursor.close()  # double close is a no-op
        with pytest.raises(CursorError):
            cursor.fetchone()

    def test_description_names_and_types(self, figure1):
        cursor = connect(figure1).execute(PROFESSORS_TEXT)
        assert [column.name for column in cursor.description] == ["enr", "ename"]
        assert cursor.description[1].type_code == "nametype"

    def test_description_is_built_once_per_result_schema(self, figure1):
        from repro.api.cursor import _DESCRIPTIONS

        connection = connect(figure1)
        first = connection.execute(PROFESSORS_TEXT)
        schema = first.result.relation.schema
        described = _DESCRIPTIONS[id(schema)]
        first.description.append("scribbled")  # a caller's copy, not the memo
        second = connection.execute(PROFESSORS_TEXT)
        assert second.result.relation.schema is schema
        assert _DESCRIPTIONS[id(schema)] is described
        assert second.description == described and second.description is not described
        assert [column.name for column in second.description] == ["enr", "ename"]

    def test_re_execute_discards_previous_result(self, figure1):
        connection = connect(figure1)
        cursor = connection.execute(EXAMPLE_21_TEXT)
        cursor.fetchone()
        cursor.execute(PROFESSORS_TEXT)
        rows = cursor.fetchall()
        expected = execute_naive(figure1, PROFESSORS_TEXT)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected)
