"""Unit tests for the collection, combination and construction phases.

These reproduce the behaviour shown in Examples 3.2, 4.1-4.3 of the paper:
which intermediate structures the collection phase builds, how many times each
relation is scanned with and without Strategy 1, and how Strategy 2 suppresses
separate single lists.
"""

import pytest

from repro.calculus.typecheck import TypeChecker
from repro.config import StrategyOptions
from repro.engine.collection import CollectionPhase, ExtendedRangeEmptyError
from repro.engine.combination import CombinationPhase
from repro.engine.construction import ConstructionPhase
from repro.transform.pipeline import prepare_query
from repro.workloads.queries import example_21, teaches_low_level
from repro.calculus import builder as q


def prepare(database, selection, options):
    resolved = TypeChecker.for_database(database).resolve(selection)
    return resolved, prepare_query(resolved, database, options, resolve=False)


class TestCollectionPhaseStructures:
    def test_example_32_structures(self, figure1):
        """The nested sub-expression of Example 3.2 yields sl_csoph and ij_c_t."""
        options = StrategyOptions.only(parallel_collection=True)
        selection = q.selection(
            [("c", "ctitle")],
            [("c", "courses")],
            q.and_(
                q.le(("c", "clevel"), "sophomore"),
                q.some("t", "timetable", q.eq(("c", "cnr"), ("t", "tcnr"))),
            ),
        )
        resolved, prepared = prepare(figure1, selection, options)
        collection = CollectionPhase(prepared, figure1, options).run()
        structures = collection.conjunctions[0]
        kinds = sorted(len(s.variables) for s in structures)
        assert kinds == [1, 2]  # one single list + one indirect join
        single = next(s for s in structures if len(s.variables) == 1)
        indirect = next(s for s in structures if len(s.variables) == 2)
        courses = figure1.relation("courses")
        low_level = {c.cnr for c in courses if c.clevel.ordinal <= 1}
        assert {ref.deref().cnr for (ref,) in single.rows} == low_level
        # Every indirect-join pair satisfies the dyadic term c.cnr = t.tcnr.
        for row in indirect.rows:
            by_var = dict(zip(indirect.variables, row))
            assert by_var["c"].deref().cnr == by_var["t"].deref().tcnr

    def test_strategy2_folds_monadic_terms_into_the_indirect_join(self, figure1):
        selection = q.selection(
            [("c", "ctitle")],
            [("c", "courses")],
            q.and_(
                q.le(("c", "clevel"), "sophomore"),
                q.some("t", "timetable", q.eq(("c", "cnr"), ("t", "tcnr"))),
            ),
        )
        with_s2 = StrategyOptions.only(parallel_collection=True, one_step_nested=True)
        resolved, prepared = prepare(figure1, selection, with_s2)
        collection = CollectionPhase(prepared, figure1, with_s2).run()
        structures = collection.conjunctions[0]
        # The monadic term was folded: only the indirect join remains.
        assert len(structures) == 1
        assert len(structures[0].variables) == 2
        # And the indirect join only holds low-level courses.
        low_level = {c.cnr for c in figure1.relation("courses") if c.clevel.ordinal <= 1}
        assert all(pair[1].deref().cnr in low_level or pair[0].deref().cnr in low_level
                   for pair in structures[0].rows)

    def test_range_refs_cover_every_variable(self, figure1):
        options = StrategyOptions.none()
        resolved, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        assert set(collection.range_refs) == {"e", "p", "c", "t"}
        assert len(collection.range_refs["e"]) == len(figure1.relation("employees"))


class TestScanCounts:
    """Example 4.1 / 4.3: Strategy 1 reads each relation no more than once."""

    def test_parallel_collection_scans_each_relation_once(self, figure1):
        options = StrategyOptions.only(parallel_collection=True)
        resolved, prepared = prepare(figure1, example_21(), options)
        figure1.reset_statistics()
        CollectionPhase(prepared, figure1, options).run()
        for relation in ("employees", "papers", "courses", "timetable"):
            assert figure1.statistics.scans(relation) == 1, relation

    def test_unoptimised_collection_scans_relations_repeatedly(self, figure1):
        options = StrategyOptions.none()
        resolved, prepared = prepare(figure1, example_21(), options)
        figure1.reset_statistics()
        CollectionPhase(prepared, figure1, options).run()
        assert figure1.statistics.scans("employees") > 1
        total_without = figure1.statistics.total_scans()

        options = StrategyOptions.only(parallel_collection=True)
        resolved, prepared = prepare(figure1, example_21(), options)
        figure1.reset_statistics()
        CollectionPhase(prepared, figure1, options).run()
        assert figure1.statistics.total_scans() < total_without

    def test_permanent_index_skips_index_build_scan(self, figure1):
        options = StrategyOptions.only(parallel_collection=False, use_index_paths=True)
        figure1.create_index("timetable", "tcnr")
        figure1.create_index("timetable", "tenr")
        figure1.create_index("papers", "penr")
        selection = teaches_low_level()
        resolved, prepared = prepare(figure1, selection, options)
        figure1.reset_statistics()
        CollectionPhase(prepared, figure1, options).run()
        # Without permanent indexes the timetable would be scanned for the
        # index build; with them it is not scanned at all in this query
        # (timetable only appears as the build side of one dyadic term).
        assert figure1.statistics.scans("timetable") <= 1


class TestStrategy4Execution:
    def test_derived_evaluators_reproduce_example_47_sets(self, figure1):
        options = StrategyOptions()
        resolved, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        # All conjunction structures are single lists over e only.
        for structures in collection.conjunctions:
            assert structures is not None
            for structure in structures:
                assert structure.variables == ("e",)

    def test_extended_range_empty_raises(self, figure1):
        options = StrategyOptions()
        selection = q.selection(
            [("e", "ename")],
            [q.each("e", q.range_("employees", q.eq(("e", "enr"), 9999)))],
            q.eq(("e", "estatus"), "professor"),
        )
        resolved, prepared = prepare(figure1, selection, options)
        with pytest.raises(ExtendedRangeEmptyError):
            CollectionPhase(prepared, figure1, options).run()


class TestCombinationAndConstruction:
    def test_combination_sizes_shrink_with_optimization(self, figure1):
        unopt = StrategyOptions.none()
        resolved, prepared = prepare(figure1, example_21(), unopt)
        collection = CollectionPhase(prepared, figure1, unopt).run()
        combination = CombinationPhase(prepared, figure1, collection).run()
        list(combination.stream)  # the peak is final once drained
        unopt_peak = combination.peak_tuples

        opt = StrategyOptions()
        resolved, prepared_opt = prepare(figure1, example_21(), opt)
        collection_opt = CollectionPhase(prepared_opt, figure1, opt).run()
        combination_opt = CombinationPhase(prepared_opt, figure1, collection_opt).run()
        list(combination_opt.stream)
        assert combination_opt.peak_tuples < unopt_peak

    def test_construction_dereferences_and_projects(self, figure1):
        options = StrategyOptions()
        resolved, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        combination = CombinationPhase(prepared, figure1, collection).run()
        result = ConstructionPhase(resolved, figure1).run(combination)
        assert result.schema.field_names == ("ename",)
        from repro.engine.naive import evaluate_selection_naive

        assert result == evaluate_selection_naive(resolved, figure1)

    def test_union_size_reported(self, figure1):
        options = StrategyOptions.none()
        resolved, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        combination = CombinationPhase(prepared, figure1, collection).run()
        assert combination.union_size >= combination.after_quantifiers_size
        assert len(combination.conjunction_sizes) == 3
