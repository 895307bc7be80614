"""``restriction_flags`` answers and counts what the interpreter does, record by record."""

from __future__ import annotations

import pytest

from repro.calculus import builder as q
from repro.engine.naive import evaluate_formula, restriction_flags
from repro.workloads.university import figure1_database

DATABASE = figure1_database()
EMPLOYEES = DATABASE.relation("employees")
RECORDS = list(EMPLOYEES.elements())
NAME = RECORDS[2]["ename"].rstrip()  # stored blank-padded to the CharArray's length

FORMULAS = {
    "field op constant": q.le(("e", "enr"), 4),
    "constant op field": q.lt(3, ("e", "enr")),
    "padded string": q.eq(("e", "ename"), NAME),
    "conjunction": q.and_(q.ge(("e", "enr"), 2), q.ne(("e", "ename"), NAME)),
    "two components": q.le(("e", "enr"), ("e", "enr")),
}


@pytest.mark.parametrize("name", FORMULAS)
def test_flags_and_comparisons_are_the_interpreters(name):
    formula, statistics = FORMULAS[name], DATABASE.statistics
    before = statistics.comparisons
    expected = [evaluate_formula(formula, {"e": record}, DATABASE) for record in RECORDS]
    interpreted = statistics.comparisons - before
    assert interpreted >= len(RECORDS)
    flags = restriction_flags(formula, "e", EMPLOYEES.schema, DATABASE)(RECORDS)
    assert flags == expected
    assert statistics.comparisons - before == 2 * interpreted
    if name != "two components":
        assert True in flags and False in flags
