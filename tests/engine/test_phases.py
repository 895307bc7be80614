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
from repro.engine.evaluator import QueryEngine
from repro.relational.reference import Ref
from repro.relational.refrelation import ReferenceType
from repro.transform.pipeline import prepare_query
from repro.workloads.queries import example_21, teaches_low_level
from repro.calculus import builder as q


def prepare(database, selection, options):
    resolved = TypeChecker.for_database(database).resolve(selection)
    return resolved, prepare_query(resolved, database, options, resolve=False)


def decoded(database, prepared, collection, variables, rows) -> list[tuple[Ref, ...]]:
    """Reference-id ``rows`` over ``variables`` as ``Ref`` tuples, decoded
    through the collection result's intern tables."""
    tables = []
    for var in variables:
        name = prepared.range_of(var).relation
        tables.append((database.relation(name), collection.keys[name]))
    return [
        tuple(Ref(relation, keys[number]) for (relation, keys), number in zip(tables, row))
        for row in rows
    ]


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
        refs = decoded(figure1, prepared, collection, single.variables, single.rows)
        assert {ref.deref().cnr for (ref,) in refs} == low_level
        # Every indirect-join pair satisfies the dyadic term c.cnr = t.tcnr.
        for row in decoded(figure1, prepared, collection, indirect.variables, indirect.rows):
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
        pairs = decoded(figure1, prepared, collection, structures[0].variables, structures[0].rows)
        assert all(pair[1].deref().cnr in low_level or pair[0].deref().cnr in low_level
                   for pair in pairs)

    def test_range_refs_cover_every_variable(self, figure1):
        options = StrategyOptions.none()
        resolved, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        assert set(collection.range_refs) == {"e", "p", "c", "t"}
        assert len(collection.range_refs["e"]) == len(figure1.relation("employees"))


class TestFigure2Structures:
    """The running query's single lists and indirect joins (Figure 2) as the
    unoptimised collection phase builds them: distinct reference-id tuples
    that decode to references into the right relations, holding exactly the
    elements that satisfy the term."""

    @pytest.fixture
    def structures(self, figure1):
        options = StrategyOptions.none()
        _, prepared = prepare(figure1, example_21(), options)
        collection = CollectionPhase(prepared, figure1, options).run()
        by_description = {}
        for conjunction in collection.conjunctions:
            for structure in conjunction:
                refs = decoded(figure1, prepared, collection, structure.variables, structure.rows)
                by_description.setdefault(structure.description, (structure, refs))
        return by_description

    @staticmethod
    def _find(structures, term):
        return next(s for d, s in structures.items() if term in d)

    def test_single_lists_hold_the_qualifying_elements(self, figure1, structures):
        cases = [
            ("e.estatus = ", "e", "employees", lambda e: e.estatus.label == "professor"),
            ("p.pyear <> ", "p", "papers", lambda p: p.pyear != 1977),
            ("c.clevel <= ", "c", "courses", lambda c: c.clevel.ordinal <= 1),
        ]
        for term, var, relation, holds in cases:
            single, refs = self._find(structures, term)
            assert single.description.startswith("single list")
            assert single.variables == (var,)
            assert all(ReferenceType(relation).contains(ref) for (ref,) in refs)
            assert {ref.deref() for (ref,) in refs} == {
                element for element in figure1.relation(relation) if holds(element)
            }, term

    def test_indirect_joins_hold_exactly_the_satisfying_pairs(self, figure1, structures):
        cases = [
            ("e.enr <> p.penr", "employees", "papers", lambda e, p: e.enr != p.penr),
            ("c.cnr = t.tcnr", "courses", "timetable", lambda c, t: c.cnr == t.tcnr),
            ("e.enr = t.tenr", "employees", "timetable", lambda e, t: e.enr == t.tenr),
        ]
        for term, left, right, holds in cases:
            indirect, refs = self._find(structures, term)
            assert indirect.description.startswith("indirect join")
            assert len(indirect.variables) == 2
            left_var, right_var = term[0], term.split()[-1][0]
            pairs = {
                (by_var[left_var].deref(), by_var[right_var].deref())
                for by_var in (dict(zip(indirect.variables, row)) for row in refs)
            }
            expected = {
                (a, b)
                for a in figure1.relation(left)
                for b in figure1.relation(right)
                if holds(a, b)
            }
            assert pairs == expected, term
            # One tuple per satisfying pair, sorted: a structure is a set.
            assert indirect.cardinality == len(expected), term
            assert indirect.rows == sorted(set(indirect.rows)), term

    def test_combination_tuples_carry_one_reference_column_per_free_variable(self, figure1):
        result = QueryEngine(figure1).run(example_21(), StrategyOptions.none())
        tuples = result.combination.tuples
        assert tuples.schema.field_names == ("e_ref",)
        assert tuples.schema.field_type("e_ref") == ReferenceType("employees")
        assert all(type(row) is tuple for row in tuples.rows)  # id rows, no record built
        refs = decoded(figure1, result.prepared, result.collection, ("e",), tuples.rows)
        assert {ref.deref().ename for (ref,) in refs} == {
            record.ename for record in result.relation
        }


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
