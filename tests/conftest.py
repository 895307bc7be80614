"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import QueryEngine, StrategyOptions, build_university_database
from repro.relational.database import Database
from repro.workloads import queries as university_queries
from repro.workloads.bibliography import BibliographyProfile, build_bibliography_database
from repro.workloads.bibliography import queries as citation_queries
from repro.workloads.university import figure1_database


@pytest.fixture
def figure1() -> Database:
    """The small Figure 1 database (8 employees, 12 papers, 6 courses, 10 entries)."""
    return figure1_database()


@pytest.fixture
def university_scale2() -> Database:
    """A scale-2 university database for slightly larger integration tests."""
    return build_university_database(scale=2)


@pytest.fixture
def engine(figure1: Database) -> QueryEngine:
    """A query engine with all strategies enabled over the Figure 1 database."""
    return QueryEngine(figure1, StrategyOptions.all_strategies())


@pytest.fixture
def unoptimized_engine(figure1: Database) -> QueryEngine:
    """A query engine with no strategies enabled over the Figure 1 database."""
    return QueryEngine(figure1, StrategyOptions.none())


ALL_STRATEGY_CONFIGS = {
    "all": StrategyOptions.all_strategies(),
    "none": StrategyOptions.none(),
    "s1": StrategyOptions.only(parallel_collection=True),
    "s1+s2": StrategyOptions.only(parallel_collection=True, one_step_nested=True),
    "s3": StrategyOptions.only(extended_ranges=True),
    "s4": StrategyOptions.only(collection_phase_quantifiers=True),
    "s3+s4": StrategyOptions.only(
        extended_ranges=True, collection_phase_quantifiers=True
    ),
    "separated": StrategyOptions(separate_existential_conjunctions=True),
    "general-s3": StrategyOptions(general_range_extensions=True),
}


@pytest.fixture(params=sorted(ALL_STRATEGY_CONFIGS), ids=sorted(ALL_STRATEGY_CONFIGS))
def strategy_options(request) -> StrategyOptions:
    """Parametrised fixture iterating over representative strategy configurations."""
    return ALL_STRATEGY_CONFIGS[request.param]


@pytest.fixture(scope="session")
def adhoc_paper_templates() -> dict[str, str]:
    """The five query templates of the end-to-end benchmark's ``adhoc_paper``.

    ``label -> format string`` over ``{k}``, ``{status}``, ``{year}`` and
    ``{level}``, read from ``benchmarks/e2e/workloads.py`` itself so the
    tests exercise the texts the benchmark sends.  That directory's modules
    import each other by bare name, hence the detour through ``sys.path``.
    """
    e2e = str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
    sys.path.insert(0, e2e)
    try:
        from workloads import AdhocPaper
    finally:
        sys.path.remove(e2e)
    return {label: text for _, label, text, _, _ in AdhocPaper.TEMPLATES}


@pytest.fixture(scope="session")
def library_requests(adhoc_paper_templates) -> list[tuple[Database, str, dict | None]]:
    """``(database, text, binding)`` for every library text of both workloads,
    every binding of the parameterized libraries and the five e2e templates,
    over two databases small enough for the naive interpreter.  Shared by the
    whole session: read only."""

    def texts(module):
        return [
            getattr(module, name)
            for name in module.__all__
            if isinstance(getattr(module, name), str) and "PARAM" not in name
        ]

    university = build_university_database(scale=1)
    bibliography = build_bibliography_database(
        profile=BibliographyProfile(authors=12, venues=3, papers=8, out_degrees=(2, 3))
    )
    requests = [(university, text, None) for text in texts(university_queries)]
    requests += [
        (university, template.format(k=8, status="professor", year=1977, level="sophomore"), None)
        for template in adhoc_paper_templates.values()
    ]
    requests += [
        (university, text, binding)
        for text, bindings in university_queries.parameterized_queries().values()
        for binding in bindings
    ]
    requests += [(bibliography, text, None) for text in texts(citation_queries)]
    requests += [
        (bibliography, text, binding)
        for text, bindings in citation_queries.bibliography_parameterized_queries().values()
        for binding in bindings
    ]
    assert len(requests) > 30
    return requests
