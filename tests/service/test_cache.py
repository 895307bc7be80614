"""The LRU plan cache and its counters."""

import pytest

from repro.errors import PlanError
from repro.relational.statistics import AccessStatistics
from repro.service.cache import PlanCache


class TestPlanCache:
    def test_store_and_lookup(self):
        cache = PlanCache(4)
        cache.store("a", 1)
        assert cache.lookup("a") == 1
        assert cache.lookup("b") is None

    def test_lru_eviction_order(self):
        cache = PlanCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")          # refresh "a": "b" is now least recent
        cache.store("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_capacity_must_be_non_negative(self):
        with pytest.raises(PlanError):
            PlanCache(-1)

    def test_zero_capacity_disables_caching(self):
        cache = PlanCache(0)
        cache.store("a", 1)
        assert cache.lookup("a") is None
        assert len(cache) == 0

    def test_zero_capacity_service_still_works(self):
        from repro import build_university_database, connect, execute_naive
        from repro.config import ServiceOptions

        database = build_university_database(scale=1)
        service = connect(
            database, service_options=ServiceOptions(plan_cache_capacity=0)
        ).service
        text = "[<e.ename> OF EACH e IN employees: (e.estatus = professor)]"
        first = service.prepare(text)
        second = service.prepare(text)
        assert second is not first  # recompiled every time
        assert service.execute(text).relation == execute_naive(database, text)

    def test_invalidate_clears_entries_but_not_counters(self):
        cache = PlanCache(4)
        cache.store("a", 1)
        cache.lookup("a")
        cache.invalidate()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_hit_and_miss_counters(self):
        cache = PlanCache(4)
        cache.lookup("a")
        cache.store("a", 1)
        cache.lookup("a")
        cache.lookup("a")
        assert cache.hits == 2
        assert cache.misses == 1
        info = cache.info()
        assert info["size"] == 1
        assert info["hits"] == 2
        assert info["misses"] == 1

    def test_counters_mirror_into_access_statistics(self):
        statistics = AccessStatistics()
        cache = PlanCache(4)
        cache.lookup("a", statistics=statistics)
        cache.store("a", 1)
        cache.lookup("a", statistics=statistics)
        assert statistics.plan_cache_hits == 1
        assert statistics.plan_cache_misses == 1
        snapshot = statistics.as_dict()
        assert snapshot["plan_cache_hits"] == 1
        assert snapshot["plan_cache_misses"] == 1

    def test_statistics_reset_zeroes_the_windowed_counters(self):
        statistics = AccessStatistics()
        cache = PlanCache(4)
        cache.lookup("a", statistics=statistics)
        statistics.reset()
        assert statistics.plan_cache_misses == 0
        assert cache.misses == 1  # the cache's own counters are monotonic
