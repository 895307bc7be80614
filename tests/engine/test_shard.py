"""Sharded parallel execution: the kernel, the gate, the backends, the counters.

The cross-backend and vs-classic equivalences live in
``tests/engine/test_equivalence.py`` (:class:`TestShardedEquivalence`); this
module unit-tests the pieces — the pure-tuple shard kernel, the
``applicable`` gate, backend resolution, shard pruning, the statistics
discipline (per-shard merges through the shared lock), EXPLAIN output and
the service layer.
"""

import logging
import multiprocessing
import os

import pytest

import repro.engine.shard as shard_module
from repro import QueryEngine, StrategyOptions, connect, execute_naive
from repro.engine.shard import (
    BACKEND_ENV,
    ShardedCombination,
    evaluate_shard,
    resolve_backend,
)
from repro.relational.statistics import AccessStatistics
from repro.workloads.queries import PUBLISHING_TEACHERS_TEXT, all_named_queries
from repro.workloads.university import build_university_database, figure1_database

# Dyadic structures must survive into the combination phase for sharding to
# have real cross-shard work; S4 would collapse them into single lists.
DYADIC = StrategyOptions.all_strategies().with_(collection_phase_quantifiers=False)
SHARDED = DYADIC.with_(sharded_execution=True, shard_min_rows=0, shard_backend="serial")


@pytest.fixture(scope="module")
def scale4():
    return build_university_database(scale=4, paged=False)


def _rows(result):
    return sorted(r.values for r in result.relation)


# ------------------------------------------------------------------- the kernel


def _ref(relation, key):
    return (relation, (key,))


_evaluate_shard = evaluate_shard


def _die_in_worker(payload):
    """``evaluate_shard`` whose pool workers die the way an OOM kill looks."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _evaluate_shard(payload)


class TestEvaluateShard:
    def test_join_and_some_elimination(self):
        e1, e2 = _ref("employees", 1), _ref("employees", 2)
        p1, p2 = _ref("papers", 1), _ref("papers", 2)
        payload = {
            "variables": ["e", "p"],
            "free": ["e"],
            "prefix": [("SOME", "p")],
            "conjunctions": [
                {
                    "structures": [
                        {"vars": ("e", "p"), "desc": "ep", "rows": [(e1, p1), (e1, p2)]}
                    ]
                }
            ],
            "ranges": {"e": [e1, e2], "p": [p1, p2]},
            "join_ordering": True,
        }
        outcome = evaluate_shard(payload)
        assert outcome["rows"] == [(e1,)]
        assert outcome["union_size"] == 2
        assert outcome["conjunction_sizes"] == [2]
        assert outcome["work"] > 0  # no join ran, so no comparisons — just rows

    def test_all_division_keeps_only_complete_groups(self):
        e1, e2 = _ref("employees", 1), _ref("employees", 2)
        p1, p2 = _ref("papers", 1), _ref("papers", 2)
        payload = {
            "variables": ["e", "p"],
            "free": ["e"],
            "prefix": [("ALL", "p")],
            "conjunctions": [
                {
                    "structures": [
                        {
                            "vars": ("e", "p"),
                            "desc": "ep",
                            "rows": [(e1, p1), (e1, p2), (e2, p1)],
                        }
                    ]
                }
            ],
            "ranges": {"e": [e1, e2], "p": [p1, p2]},
            "join_ordering": True,
        }
        outcome = evaluate_shard(payload)
        assert outcome["rows"] == [(e1,)]  # e2 lacks p2

    def test_true_conjunction_enumerates_the_shard_local_range(self):
        e1, e2 = _ref("employees", 1), _ref("employees", 2)
        payload = {
            "variables": ["e"],
            "free": ["e"],
            "prefix": [],
            "conjunctions": [{"structures": []}],
            "ranges": {"e": [e2, e1]},
            "join_ordering": False,
        }
        assert evaluate_shard(payload)["rows"] == [(e1,), (e2,)]

    def test_unmentioned_variables_are_extended_with_their_ranges(self):
        e1 = _ref("employees", 1)
        c1, c2 = _ref("courses", 1), _ref("courses", 2)
        payload = {
            "variables": ["e", "c"],
            "free": ["e", "c"],
            "prefix": [],
            "conjunctions": [
                {"structures": [{"vars": ("e",), "desc": "e", "rows": [(e1,)]}]}
            ],
            "ranges": {"e": [e1], "c": [c1, c2]},
            "join_ordering": True,
        }
        assert evaluate_shard(payload)["rows"] == [(e1, c1), (e1, c2)]

    def test_rows_are_sorted_for_deterministic_merging(self):
        refs = [_ref("employees", n) for n in (5, 3, 9, 1)]
        payload = {
            "variables": ["e"],
            "free": ["e"],
            "prefix": [],
            "conjunctions": [{"structures": []}],
            "ranges": {"e": refs},
            "join_ordering": True,
        }
        rows = evaluate_shard(payload)["rows"]
        assert rows == sorted(rows)


# ------------------------------------------------------------------- the gate


class TestGate:
    def test_sharding_is_opt_in(self, scale4):
        # The measured verdict: sharding loses on the clock, so default
        # options never reach it — however large the structures are.
        assert not StrategyOptions().sharded_execution
        result = QueryEngine(scale4, DYADIC.with_(shard_min_rows=0)).run(
            PUBLISHING_TEACHERS_TEXT
        )
        assert result.combination.shard_report is None
        assert scale4.statistics.shards_scanned == 0

    def test_small_databases_stay_on_the_classic_path(self):
        # Opted in, but shard_min_rows=64 and Figure 1 structures are tiny.
        db = figure1_database(paged=False)
        result = QueryEngine(db, StrategyOptions(sharded_execution=True)).run(
            all_named_queries()["publishing_teachers"]
        )
        assert result.combination.shard_report is None
        assert db.statistics.shards_scanned == 0

    def test_forcing_the_gate_engages_sharding(self, scale4):
        result = QueryEngine(scale4, SHARDED).run(PUBLISHING_TEACHERS_TEXT)
        report = result.combination.shard_report
        assert report is not None
        assert report.variable == "e"
        assert report.scanned + report.pruned == SHARDED.shard_count
        assert scale4.statistics.shards_scanned == report.scanned

    def test_none_and_only_presets_disable_sharding(self, scale4):
        for options in (StrategyOptions.none(), StrategyOptions.only(join_ordering=True)):
            assert not options.sharded_execution
            result = QueryEngine(scale4, options.with_(shard_min_rows=0)).run(
                PUBLISHING_TEACHERS_TEXT
            )
            assert result.combination.shard_report is None

    def test_min_rows_gate_respects_structure_sizes(self, scale4):
        gated = DYADIC.with_(sharded_execution=True, shard_min_rows=10**6)
        result = QueryEngine(scale4, gated).run(PUBLISHING_TEACHERS_TEXT)
        assert result.combination.shard_report is None

    def test_shard_variable_picks_the_heaviest_free_variable(self, scale4):
        engine = QueryEngine(scale4, SHARDED)
        result = engine.run(PUBLISHING_TEACHERS_TEXT)
        assert result.combination.shard_report.variable == "e"


# --------------------------------------------------------------- backend dispatch


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_backend_matches_the_naive_evaluator(self, scale4, backend):
        options = SHARDED.with_(shard_backend=backend)
        expected = execute_naive(scale4, PUBLISHING_TEACHERS_TEXT)
        result = QueryEngine(scale4, options).run(PUBLISHING_TEACHERS_TEXT)
        assert sorted(r.values for r in result.relation) == sorted(
            r.values for r in expected
        )

    def test_auto_backend_is_reached_only_through_the_forced_gate(self, scale4):
        # Whatever REPRO_SHARD_BACKEND says (the CI parallel-execution job
        # sets ``process``), ``auto`` only matters once sharding is opted in.
        options = SHARDED.with_(shard_backend="auto")
        result = QueryEngine(scale4, options).run(PUBLISHING_TEACHERS_TEXT)
        assert result.combination.shard_report.backend == resolve_backend(options)
        assert _rows(result) == _rows(
            QueryEngine(scale4, DYADIC).run(PUBLISHING_TEACHERS_TEXT)
        )

    def test_a_dying_worker_process_falls_back_to_serial_and_logs(
        self, scale4, monkeypatch, caplog
    ):
        monkeypatch.setattr(shard_module, "evaluate_shard", _die_in_worker)
        options = SHARDED.with_(shard_backend="process")
        with caplog.at_level(logging.WARNING, logger="repro.engine.shard"):
            result = QueryEngine(scale4, options).run(PUBLISHING_TEACHERS_TEXT)
        expected = execute_naive(scale4, PUBLISHING_TEACHERS_TEXT)
        assert _rows(result) == sorted(r.values for r in expected)
        report = result.combination.shard_report
        assert report.scanned > 1  # a single shard would never start a pool
        assert result.statistics["shards_scanned"] == report.scanned  # each merged once
        warnings = [r for r in caplog.records if r.name == "repro.engine.shard"]
        assert len(warnings) == 1 and "serially" in warnings[0].getMessage()

    def test_auto_resolves_to_thread_by_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(StrategyOptions(shard_backend="auto")) == "thread"

    def test_auto_honours_the_environment_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert resolve_backend(StrategyOptions(shard_backend="auto")) == "process"

    def test_explicit_backend_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert resolve_backend(StrategyOptions(shard_backend="serial")) == "serial"

    def test_unknown_backend_falls_back_to_thread(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        assert resolve_backend(StrategyOptions(shard_backend="auto")) == "thread"


# ------------------------------------------------------------------- pruning


class TestShardPruning:
    def test_overpartitioning_prunes_empty_shards(self):
        # 8 employees into 32 hash shards: several shards necessarily empty.
        db = figure1_database(paged=False)
        options = SHARDED.with_(shard_count=32)
        result = QueryEngine(db, options).run(PUBLISHING_TEACHERS_TEXT)
        report = result.combination.shard_report
        assert report is not None
        assert report.pruned > 0
        assert db.statistics.shards_pruned == report.pruned
        assert db.statistics.shards_scanned == report.scanned
        # pruning may not change the answer
        expected = execute_naive(db, PUBLISHING_TEACHERS_TEXT)
        assert sorted(r.values for r in result.relation) == sorted(
            r.values for r in expected
        )


# ------------------------------------------------------------- partition layout


class TestRangeLayoutAutoPick:
    """Hash-shard skew flips the partition layout to range (PR 9)."""

    HOT, TAIL = 0, 12
    QUERY = "[<i.id> OF EACH i IN items: SOME l IN links (l.ref = i.id)]"

    def _database(self):
        from repro.relational.database import Database
        from repro.types.scalar import Subrange

        # One hot item owns 100 links; hash placement would pile all of them
        # onto whichever shard key 0 hashes to, so the predicted max/mean
        # load crosses ``shard_skew_threshold`` and the planner cuts
        # frequency-weighted range bounds instead.
        database = Database("skew")
        database.create_relation(
            "items", [("id", Subrange(0, 999, "itemid"))], key=["id"]
        )
        database.create_relation(
            "links",
            [("lid", Subrange(0, 9999, "linkid")), ("ref", Subrange(0, 999, "linkref"))],
            key=["lid"],
        )
        items = database.relation("items")
        for i in range(self.TAIL + 1):
            items.insert({"id": i})
        links = database.relation("links")
        lid = 0
        for _ in range(100):
            links.insert({"lid": lid, "ref": self.HOT})
            lid += 1
        for i in range(1, self.TAIL + 1):
            links.insert({"lid": lid, "ref": i})
            lid += 1
        return database

    def test_skew_flips_the_layout_to_range(self):
        result = QueryEngine(self._database(), SHARDED).run(self.QUERY)
        report = result.combination.shard_report
        assert report is not None
        assert report.spec.startswith("range(i_ref)"), report.spec

    def test_range_and_hash_layouts_are_byte_identical(self):
        database = self._database()
        ranged = QueryEngine(database, SHARDED).run(self.QUERY)
        hashed = QueryEngine(
            database, SHARDED.with_(shard_skew_threshold=0.0)
        ).run(self.QUERY)
        unsharded = QueryEngine(
            database, SHARDED.with_(sharded_execution=False)
        ).run(self.QUERY)
        assert ranged.combination.shard_report.spec.startswith("range(")
        assert hashed.combination.shard_report.spec.startswith("hash(")
        assert _rows(ranged) == _rows(hashed) == _rows(unsharded)

    def test_statistics_off_keeps_the_hash_layout(self):
        options = SHARDED.with_(histogram_statistics=False)
        result = QueryEngine(self._database(), options).run(self.QUERY)
        assert result.combination.shard_report.spec.startswith("hash(")

    def test_uniform_loads_keep_the_hash_layout(self, scale4):
        result = QueryEngine(scale4, SHARDED).run(PUBLISHING_TEACHERS_TEXT)
        assert result.combination.shard_report.spec.startswith("hash(")


# ------------------------------------------------------------------- statistics


class TestStatisticsDiscipline:
    def test_new_counters_round_trip_through_dict_reset_merge(self):
        stats = AccessStatistics()
        stats.record_shards_scanned(3)
        stats.record_shards_pruned(1)
        stats.record_bytes_shipped(120)
        stats.record_reducer_round(2)
        snapshot = stats.as_dict()
        assert snapshot["shards_scanned"] == 3
        assert snapshot["shards_pruned"] == 1
        assert snapshot["bytes_shipped"] == 120
        assert snapshot["reducer_rounds"] == 2
        other = AccessStatistics()
        other.merge(stats)
        assert other.as_dict()["bytes_shipped"] == 120
        stats.reset()
        assert stats.as_dict()["shards_scanned"] == 0

    def test_summary_mentions_shards(self):
        stats = AccessStatistics()
        stats.record_shards_scanned(2)
        assert "shards" in stats.summary()

    def test_sharded_run_records_shipping_and_reducer_rounds(self, scale4):
        result = QueryEngine(scale4, SHARDED).run(PUBLISHING_TEACHERS_TEXT)
        report = result.combination.shard_report
        assert scale4.statistics.bytes_shipped == report.shipped_bytes > 0
        assert scale4.statistics.reducer_rounds == report.reducer_rounds > 0
        assert report.shipped_bytes < report.naive_ship_bytes

    def test_per_shard_merges_go_through_the_shared_lock(self, scale4):
        """The race-safety probe: every worker merge acquires the tracker lock."""
        options = SHARDED.with_(shard_backend="thread")
        locked_sections = []
        shared = scale4.statistics
        real_lock = shared._lock

        class _CountingLock:
            def __enter__(self):
                real_lock.acquire()
                locked_sections.append(True)
                return self

            def __exit__(self, *exc_info):
                real_lock.release()

        shared._lock = _CountingLock()
        try:
            result = QueryEngine(scale4, options).run(PUBLISHING_TEACHERS_TEXT)
        finally:
            shared._lock = real_lock
        report = result.combination.shard_report
        assert report.scanned > 1
        # one reset at run start + one merge per dispatched shard, at least
        assert len(locked_sections) >= 1 + report.scanned


# ------------------------------------------------------------------- explain


class TestExplain:
    def test_analyze_shows_per_shard_paths_and_reducer_sizes(self, scale4):
        report = QueryEngine(scale4, SHARDED).explain(
            PUBLISHING_TEACHERS_TEXT, analyze=True
        )
        assert "execution: sharded parallel" in report
        assert "sharded execution: hash(e_ref) %" in report
        assert "bytes shipped" in report
        assert "shard 0:" in report
        assert "reducer rounds" in report

    def test_unsharded_analyze_is_unchanged(self, scale4):
        report = QueryEngine(scale4, DYADIC.with_(sharded_execution=False)).explain(
            PUBLISHING_TEACHERS_TEXT, analyze=True
        )
        assert "sharded" not in report.replace("sharded execution", "")
        assert "execution: streaming pipeline" in report


# ------------------------------------------------------------------- service layer


class TestServiceLayer:
    def test_prepared_sharded_plans_are_cached_and_equivalent(self, scale4):
        connection = connect(scale4)
        service = connection.service
        first = service.prepare(PUBLISHING_TEACHERS_TEXT, options=SHARDED)
        again = service.prepare(PUBLISHING_TEACHERS_TEXT, options=SHARDED)
        assert again is first
        expected = execute_naive(scale4, PUBLISHING_TEACHERS_TEXT)
        for _ in range(2):  # second execution reuses the collection memo
            result = first.execute()
            assert sorted(r.values for r in result.relation) == sorted(
                r.values for r in expected
            )
        connection.close()

    def test_catalog_change_invalidates_sharded_plans(self, scale4):
        connection = connect(scale4)
        service = connection.service
        before = service.prepare(PUBLISHING_TEACHERS_TEXT, options=SHARDED)
        scale4.create_index("employees", "enr")
        try:
            after = service.prepare(PUBLISHING_TEACHERS_TEXT, options=SHARDED)
            assert after is not before
            after.execute()
        finally:
            scale4.drop_index("employees", "enr")
            connection.close()
