"""The QueryService facade: caching, invalidation, batches, thread safety."""

import threading

import pytest

from repro import QueryEngine, StrategyOptions, build_university_database, connect, execute_naive
from repro.config import ServiceOptions
from repro.workloads.queries import (
    EXAMPLE_21_TEXT,
    PROFESSORS_TEXT,
    STATUS_PARAM_TEXT,
    TEACHES_AT_LEVEL_PARAM_TEXT,
    parameterized_queries,
)


class TestPlanCaching:
    def test_same_text_hits_the_cache(self, figure1):
        service = connect(figure1).service
        first = service.prepare(PROFESSORS_TEXT)
        second = service.prepare(PROFESSORS_TEXT)
        assert second is first
        assert service.cache_info()["hits"] == 1

    def test_normalization_ignores_whitespace_comments_and_keyword_case(self, figure1):
        service = connect(figure1).service
        first = service.prepare(PROFESSORS_TEXT)
        variant = (
            "  [<e.enr, e.ename> OF each e IN employees:  {paper query}\n"
            "      (e.estatus = professor)]  (* trailing *)"
        )
        assert service.prepare(variant) is first

    def test_different_options_get_different_plans(self, figure1):
        service = connect(figure1).service
        default = service.prepare(EXAMPLE_21_TEXT)
        legacy = service.prepare(EXAMPLE_21_TEXT, options=StrategyOptions.none())
        assert legacy is not default
        assert len(service.cache) == 2

    def test_catalog_change_invalidates_cached_plans(self, figure1):
        service = connect(figure1).service
        before = service.prepare(PROFESSORS_TEXT)
        figure1.create_index("employees", "enr")
        after = service.prepare(PROFESSORS_TEXT)
        assert after is not before

    def test_dropped_then_recreated_index_invalidates_cached_plans(self, figure1):
        """Regression: every index drop AND re-create is its own catalog
        change, so a plan cached against the intermediate (index-less)
        catalog cannot be served once the index is back — the re-created
        index may change the chosen access path."""
        figure1.create_index("employees", "enr")
        service = connect(figure1).service
        with_index = service.prepare(PROFESSORS_TEXT)
        figure1.drop_index("employees", "enr")
        assert with_index.is_stale()
        without_index = service.prepare(PROFESSORS_TEXT)
        assert without_index is not with_index
        figure1.create_index("employees", "enr")
        assert without_index.is_stale()
        recreated = service.prepare(PROFESSORS_TEXT)
        assert recreated is not without_index and recreated is not with_index
        assert not recreated.is_stale()
        recreated.execute()  # and the fresh plan executes

    def test_emptiness_transition_invalidates_cached_plans(self):
        """Lemma 1 is the only data dependency of compilation: plans are keyed
        on which relations are empty."""
        database = build_university_database(scale=1)
        service = connect(database).service
        before = service.prepare(EXAMPLE_21_TEXT)
        papers = database.relation("papers")
        saved = list(papers.elements())
        papers.assign([])
        adapted = service.prepare(EXAMPLE_21_TEXT)
        assert adapted is not before
        assert "empty-relation adaptation" in adapted.trace.names()
        assert service.execute(EXAMPLE_21_TEXT).relation == execute_naive(
            database, EXAMPLE_21_TEXT
        )
        papers.assign(saved)
        assert service.execute(EXAMPLE_21_TEXT).relation == execute_naive(
            database, EXAMPLE_21_TEXT
        )

    def test_unrelated_emptiness_flip_keeps_cached_plans(self, figure1):
        """The cache key ignores emptiness; a hit is validated against the
        plan's own referenced relations, so flipping an unrelated relation
        neither orphans nor duplicates entries."""
        from repro.types.scalar import INTEGER

        figure1.create_relation("audit_log", [("anr", INTEGER)], key=["anr"])
        service = connect(figure1).service
        first = service.prepare(PROFESSORS_TEXT)
        figure1.relation("audit_log").insert({"anr": 1})  # empty -> non-empty
        assert service.prepare(PROFESSORS_TEXT) is first
        assert len(service.cache) == 1

    def test_lru_eviction_respects_capacity(self, figure1):
        service = connect(figure1, service_options=ServiceOptions(plan_cache_capacity=1)).service
        service.prepare(PROFESSORS_TEXT)
        service.prepare(EXAMPLE_21_TEXT)
        assert len(service.cache) == 1

    def test_selection_objects_are_cacheable_keys(self, figure1):
        from repro.workloads.queries import example_21

        service = connect(figure1).service
        first = service.prepare(example_21())
        second = service.prepare(example_21())
        assert second is first


class TestExecuteBatch:
    def test_batch_results_equal_individual_execution(self, figure1):
        service = connect(figure1).service
        requests = [
            (STATUS_PARAM_TEXT, {"status": "professor"}),
            (STATUS_PARAM_TEXT, {"status": "student"}),
            (TEACHES_AT_LEVEL_PARAM_TEXT, {"level": "sophomore"}),
            EXAMPLE_21_TEXT,
            PROFESSORS_TEXT,
        ]
        batch = service.execute_batch(requests)
        assert len(batch) == len(requests)
        for request, result in zip(requests, batch):
            query, parameters = request if isinstance(request, tuple) else (request, None)
            individual = service.execute(query, parameters)
            assert [r.values for r in result] == [r.values for r in individual], query

    def test_a_repeated_batch_is_served_from_the_collection_memos(self, university_scale2):
        """A batch member runs as ``execute`` does: a binding seen before takes
        its collection result from the handle's memo and reads no relation.

        A selection (a constant matrix) has no collection phase and reads its
        range on every execution, as does a binding that takes the Strategy 3
        fallback; the repeated batch is made of the members that collect.
        """
        service = connect(university_scale2).service
        requests = [
            (text, values)
            for _, (text, bindings) in parameterized_queries().items()
            for values in bindings
        ]
        first = service.execute_batch(requests)
        collecting = [
            position
            for position, result in enumerate(first)
            if result.collection is not None and not result.used_strategy3_fallback
        ]
        assert len(collecting) >= len(requests) // 2
        again = service.execute_batch([requests[position] for position in collecting])
        for position, result in zip(collecting, again):
            assert result.collection is first[position].collection, requests[position]
        reads = {
            name: counters
            for name, counters in again[-1].statistics["relations"].items()
            if any(counters.values())
        }
        assert reads == {}
        second = service.execute_batch(requests)
        assert [[r.values for r in result] for result in second] == [
            [r.values for r in result] for result in first
        ]

    def test_queries_over_different_relations_with_one_variable_name(self, figure1):
        service = connect(figure1).service
        queries = [
            "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]",
            "[<e.ctitle> OF EACH e IN courses: (e.clevel = senior)]",  # same var, other relation
        ]
        batch = service.execute_batch(queries)
        for query, result in zip(queries, batch):
            assert result.relation == execute_naive(figure1, query), query

    def test_batch_handles_parameterized_workload(self, university_scale2):
        service = connect(university_scale2).service
        requests = [
            (text, values)
            for _, (text, bindings) in parameterized_queries().items()
            for values in bindings
        ]
        batch = service.execute_batch(requests)
        for (text, values), result in zip(requests, batch):
            individual = service.execute(text, values)
            assert [r.values for r in result] == [r.values for r in individual], (text, values)

    def test_grouping_is_not_an_option(self, figure1):
        with pytest.raises(TypeError):
            ServiceOptions(batching=False)
        service = connect(figure1).service
        batch = service.execute_batch([PROFESSORS_TEXT, EXAMPLE_21_TEXT])
        assert [r.relation for r in batch] == [
            service.execute(PROFESSORS_TEXT).relation,
            service.execute(EXAMPLE_21_TEXT).relation,
        ]


class TestThreadSafety:
    def test_concurrent_prepare_and_execute(self):
        database = build_university_database(scale=1)
        service = connect(database).service
        requests = [
            (text, values)
            for _, (text, bindings) in parameterized_queries().items()
            for values in bindings
        ]
        expected = {
            index: service.execute(text, values).relation
            for index, (text, values) in enumerate(requests)
        }
        failures: list = []

        def worker(worker_index: int) -> None:
            try:
                for round_index in range(4):
                    index = (worker_index + round_index) % len(requests)
                    text, values = requests[index]
                    result = service.execute(text, values)
                    if result.relation != expected[index]:
                        failures.append((worker_index, index))
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append((worker_index, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
