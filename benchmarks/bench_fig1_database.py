"""FIG1 — Figure 1: the sample database.

Regenerates the paper's Figure 1 declaration (schema + populated relations)
and times database construction and full sequential scans across scale
factors, establishing the substrate costs every other experiment builds on.
"""

import pytest

from repro import build_university_database
from repro.bench.report import SCALES, print_report
from repro.workloads.university import declare_schema
from repro.relational.database import Database


@pytest.mark.parametrize("scale", SCALES)
def test_build_database(benchmark, scale):
    """Time building the Figure 1 database at several scale factors."""
    database = benchmark(build_university_database, scale=scale)
    cards = database.cardinalities()
    assert cards["employees"] == 8 * scale
    assert cards["papers"] == 12 * scale


def test_declare_schema(benchmark):
    """Time the schema declaration alone (the Figure 1 VAR section)."""

    def declare():
        database = Database("university")
        declare_schema(database)
        return database

    database = benchmark(declare)
    assert set(database.relation_names()) == {"employees", "papers", "courses", "timetable"}


@pytest.mark.parametrize("scale", SCALES)
def test_scan_all_relations(benchmark, scale):
    """Time one full sequential scan of every base relation."""
    database = build_university_database(scale=scale)

    def scan_all():
        total = 0
        for relation in database.relations():
            total += sum(1 for _ in relation.scan())
        return total

    total = benchmark(scan_all)
    assert total == sum(database.cardinalities().values())


def test_report_figure1_contents(university_small):
    """Print the Figure 1 database profile (cardinalities, schema keys)."""
    lines = []
    for relation in university_small.relations():
        lines.append(
            f"{relation.name:10s} key=<{', '.join(relation.schema.key)}> "
            f"elements={len(relation):4d}"
        )
    print_report("FIG1 — sample database (scale 1)", "\n".join(lines))
