"""COMBJOIN — the combination-phase optimizer: legacy vs. ordered vs. semijoin.

The combination phase builds the n-tuple reference relations whose size the
whole strategy catalogue exists to tame.  This benchmark compares three
configurations of that phase on the multi-variable workload queries, at
scale 1 and scale 4:

* ``legacy``           — textual first-connected join order (the literal
                         Section 3.3 procedure),
* ``ordered``          — greedy cost-ordered joins (smallest structure first,
                         then the connected structure with the smallest
                         estimated join cardinality),
* ``ordered+semijoin`` — cost-ordered joins over structures first shrunk by
                         the Bernstein & Chiu-style semijoin reducer pass.

All three return results identical to ``execute_naive``; the point of the
table is the *intermediate-tuple* columns: peak n-tuples and total
intermediates drop once the reducer runs, because dyadic structures shrink
before they ever enter a join.  The ``reduced`` extra column counts the
reference tuples the reducer removed.
"""

import pytest

from repro import StrategyOptions, execute_naive
from repro.bench.harness import format_table, measure
from repro.bench.report import print_report
from repro.engine.evaluator import QueryEngine
from repro.workloads.queries import (
    OTHERS_PUBLISHED_1977_TEXT,
    PUBLISHING_TEACHERS_TEXT,
    TEACHES_LOW_LEVEL_TEXT,
)

#: Strategies 2-4 are switched off so the dyadic structures actually reach
#: the combination phase (with Strategy 4 on, the paper's pushdowns collapse
#: most of these queries into single lists before any n-tuple join happens).
_BASE = StrategyOptions.only(parallel_collection=True)

CONFIGURATIONS = {
    "legacy": _BASE,
    "ordered": _BASE.with_(join_order="uniform"),
    "ordered+semijoin": _BASE.with_(join_order="uniform", semijoin_reduction=True),
}

QUERIES = {
    "others_published_1977": OTHERS_PUBLISHED_1977_TEXT,
    "publishing_teachers": PUBLISHING_TEACHERS_TEXT,
    "teaches_low_level": TEACHES_LOW_LEVEL_TEXT,
}


def _measure_all(database, text):
    measurements = []
    for label, options in CONFIGURATIONS.items():
        measurement = measure(database, text, options, label=label)
        snapshot = database.statistics.as_dict()
        measurement.extra["reduced"] = snapshot.get("reduced_tuples", 0)
        measurements.append(measurement)
    return measurements


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_results_identical_across_configurations(university_medium, query_name):
    """Every configuration returns exactly the naive interpretation's answer."""
    text = QUERIES[query_name]
    expected = execute_naive(university_medium, text)
    for options in CONFIGURATIONS.values():
        assert QueryEngine(university_medium, options).run(text).relation == expected


def test_semijoin_reduces_peak_on_showcase_query(university_medium):
    """The optimizer's acceptance claim: peak n-tuples drop measurably."""
    legacy = measure(
        university_medium, OTHERS_PUBLISHED_1977_TEXT, CONFIGURATIONS["legacy"], label="legacy"
    )
    optimized = measure(
        university_medium,
        OTHERS_PUBLISHED_1977_TEXT,
        CONFIGURATIONS["ordered+semijoin"],
        label="ordered+semijoin",
    )
    assert optimized.peak_combination_tuples < legacy.peak_combination_tuples
    assert optimized.intermediate_tuples < legacy.intermediate_tuples


@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_report_combination_optimizer(university_small, university_medium, query_name):
    """Print the paper-style intermediate-tuple table at both scales."""
    text = QUERIES[query_name]
    sections = []
    for scale_label, database in (("scale 1", university_small), ("scale 4", university_medium)):
        measurements = _measure_all(database, text)
        table = format_table(measurements, title=f"{query_name} — {scale_label}")
        reduced = " | ".join(
            f"{m.label}: reduced={m.extra['reduced']}" for m in measurements
        )
        sections.append(table + "\n" + reduced)
    print_report(
        f"COMBJOIN — combination-phase join optimizer ({query_name})",
        "\n\n".join(sections),
    )


def test_timing_ordered_semijoin(benchmark, university_medium):
    """pytest-benchmark timing of the fully optimized combination pipeline."""
    engine = QueryEngine(university_medium, CONFIGURATIONS["ordered+semijoin"])
    result = benchmark(lambda: engine.run(OTHERS_PUBLISHED_1977_TEXT))
    assert len(result.relation) > 0
