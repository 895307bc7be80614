"""Unit tests for the Figure 1 database generator and the paper queries."""

import pytest

from repro.lang.parser import parse_selection
from repro.workloads.generator import GeneratorConfig, random_database, random_workload
from repro.workloads.queries import EXAMPLE_21_TEXT, all_named_queries, example_21
from repro.workloads.university import (
    LEVEL_TYPE,
    STATUS_TYPE,
    UniversityProfile,
    build_university_database,
    figure1_database,
)


class TestFigure1Schema:
    def test_relations_and_keys_match_figure1(self, figure1):
        assert set(figure1.relation_names()) == {"employees", "papers", "courses", "timetable"}
        assert figure1.relation("employees").schema.key == ("enr",)
        assert figure1.relation("papers").schema.key == ("ptitle", "penr")
        assert figure1.relation("courses").schema.key == ("cnr",)
        assert figure1.relation("timetable").schema.key == ("tenr", "tcnr", "tday")

    def test_component_types_match_figure1(self, figure1):
        employees = figure1.relation("employees").schema
        assert employees.field_type("estatus") is STATUS_TYPE
        courses = figure1.relation("courses").schema
        assert courses.field_type("clevel") is LEVEL_TYPE

    def test_base_cardinalities(self, figure1):
        assert figure1.cardinalities() == {
            "employees": 8,
            "papers": 12,
            "courses": 6,
            "timetable": 10,
        }


class TestGenerator:
    def test_scaling_multiplies_cardinalities(self):
        db = build_university_database(scale=3)
        cards = db.cardinalities()
        assert cards["employees"] == 24
        assert cards["papers"] == 36

    def test_determinism(self):
        first = build_university_database(scale=2, seed=7)
        second = build_university_database(scale=2, seed=7)
        assert first.relation("employees") == second.relation("employees")
        assert first.relation("timetable") == second.relation("timetable")

    def test_different_seeds_differ(self):
        first = build_university_database(scale=2, seed=7)
        second = build_university_database(scale=2, seed=8)
        assert first.relation("employees") != second.relation("employees")

    def test_selectivities_present(self):
        db = build_university_database(scale=5)
        employees = db.relation("employees").elements()
        assert any(e.estatus.label == "professor" for e in employees)
        assert any(e.estatus.label != "professor" for e in employees)
        papers = db.relation("papers").elements()
        assert any(p.pyear == 1977 for p in papers)
        courses = db.relation("courses").elements()
        assert any(c.clevel.ordinal <= 1 for c in courses)

    def test_timetable_references_valid_employees_and_courses(self):
        db = build_university_database(scale=3)
        employee_numbers = {e.enr for e in db.relation("employees")}
        course_numbers = {c.cnr for c in db.relation("courses")}
        for entry in db.relation("timetable"):
            assert entry.tenr in employee_numbers
            assert entry.tcnr in course_numbers

    def test_profile_scaling(self):
        profile = UniversityProfile().scaled(4)
        assert profile.employees == 32
        assert profile.professor_fraction == UniversityProfile().professor_fraction


def _snapshot(db):
    return {
        name: sorted(tuple(str(v) for v in r.values) for r in db.relation(name))
        for name in ("employees", "papers", "courses", "timetable")
    }


class TestParallelGeneration:
    """Derived per-(relation, chunk) seeds: parallel generation at scale is
    deterministic no matter how the pool schedules the workers."""

    def test_parallel_generation_is_deterministic(self):
        first = build_university_database(scale=8, paged=False, workers=4)
        second = build_university_database(scale=8, paged=False, workers=4)
        assert _snapshot(first) == _snapshot(second)

    def test_scheduling_cannot_influence_the_data(self, monkeypatch):
        """A fully serialized pool must produce the same database as a real
        4-thread pool — the strongest scheduling perturbation available."""
        import concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        parallel = build_university_database(scale=8, paged=False, workers=4)

        class _SerializedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                super().__init__(max_workers=1)

        # The generator imports the executor where it uses it.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerializedPool)
        serialized = build_university_database(scale=8, paged=False, workers=4)
        assert _snapshot(parallel) == _snapshot(serialized)

    def test_chunk_streams_are_pure_functions_of_their_derived_seed(self):
        """Generating the chunks in any order yields identical rows — the
        property that makes the parallel path scheduling-independent."""
        from repro.workloads.university import (
            _chunk_bounds,
            _chunk_rng,
            _generate_papers,
        )

        profile = UniversityProfile().scaled(8)
        bounds = _chunk_bounds(profile.papers, 4)
        forward = [
            _generate_papers(_chunk_rng(7, "papers", chunk), lo, hi, profile)
            for chunk, (lo, hi) in enumerate(bounds)
        ]
        backward = [
            _generate_papers(_chunk_rng(7, "papers", chunk), *bounds[chunk], profile)
            for chunk in reversed(range(4))
        ]
        assert forward == list(reversed(backward))

    def test_parallel_generation_preserves_cardinalities_and_integrity(self):
        db = build_university_database(scale=8, paged=False, workers=4)
        cards = db.cardinalities()
        assert cards == {"employees": 64, "papers": 96, "courses": 48, "timetable": 80}
        employee_numbers = {e.enr for e in db.relation("employees")}
        course_numbers = {c.cnr for c in db.relation("courses")}
        for entry in db.relation("timetable"):
            assert entry.tenr in employee_numbers
            assert entry.tcnr in course_numbers

    def test_default_path_is_still_the_sequential_generator(self):
        assert _snapshot(build_university_database(scale=2, paged=False)) == _snapshot(
            build_university_database(scale=2, paged=False, workers=0)
        )

    def test_unpaged_database(self):
        db = build_university_database(scale=1, paged=False)
        from repro.storage.storedrelation import StoredRelation

        assert not isinstance(db.relation("employees"), StoredRelation)


class TestPaperQueries:
    def test_all_named_queries_parse_and_resolve(self, figure1):
        from repro.calculus.typecheck import TypeChecker

        checker = TypeChecker.for_database(figure1)
        for name, selection in all_named_queries().items():
            checker.check(selection)

    def test_example_21_text_matches_builder(self):
        assert parse_selection(EXAMPLE_21_TEXT) == example_21()


class TestRandomWorkloadGenerator:
    def test_random_database_respects_config(self):
        import random

        config = GeneratorConfig(max_elements=3, empty_probability=0.0)
        db = random_database(random.Random(1), config)
        assert all(0 < len(rel) <= 3 for rel in db.relations())

    def test_empty_probability_one_gives_empty_relations(self):
        import random

        config = GeneratorConfig(empty_probability=1.0)
        db = random_database(random.Random(1), config)
        assert all(rel.is_empty() for rel in db.relations())

    def test_random_workload_is_reproducible(self):
        assert random_workload(42)[1] == random_workload(42)[1]
