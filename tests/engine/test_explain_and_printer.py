"""Unit tests for EXPLAIN output and the calculus pretty printer."""

import re

import pytest

from repro import QueryEngine, StrategyOptions
from repro.calculus import builder as q
from repro.calculus.ast import TRUE
from repro.calculus.printer import format_formula, format_operand, format_range, format_selection
from repro.errors import CalculusError
from repro.types.scalar import Enumeration
from repro.workloads.bibliography import build_bibliography_database
from repro.workloads.bibliography.queries import COCITATION_TEXT
from repro.workloads.queries import EXAMPLE_21_TEXT


class TestPrinter:
    def test_operands(self):
        status = Enumeration("statustype", ("student", "professor"))
        assert format_operand(q.field("e", "ename")) == "e.ename"
        assert format_operand(q.const(1977)) == "1977"
        assert format_operand(q.const("Highman   ")) == "'Highman'"
        assert format_operand(q.const(status.professor)) == "professor"
        assert format_operand(q.const(True)) == "true"
        with pytest.raises(CalculusError):
            format_operand(object())

    def test_comparison_always_parenthesised(self):
        assert format_formula(q.eq(("e", "enr"), 1)) == "(e.enr = 1)"

    def test_connectives_and_not(self):
        formula = q.and_(q.eq(("e", "enr"), 1), q.not_(q.eq(("e", "enr"), 2)))
        text = format_formula(formula)
        assert "AND" in text and "NOT" in text

    def test_quantifier_with_extended_range(self):
        formula = q.all_(
            "p", q.range_("papers", q.eq(("p", "pyear"), 1977)), q.ne(("p", "penr"), 1)
        )
        text = format_formula(formula)
        assert text.startswith("ALL p IN [EACH p IN papers:")

    def test_range_formatting(self):
        assert format_range(q.range_("papers"), "p") == "papers"
        assert "EACH c IN courses" in format_range(
            q.range_("courses", q.le(("c", "clevel"), 1)), "c"
        )

    def test_selection_with_alias(self):
        selection = q.selection(
            [q.column("e", "ename", alias="name")], [("e", "employees")], TRUE
        )
        assert "AS name" in format_selection(selection)

    def test_bool_constants(self):
        assert format_formula(TRUE) == "true"


class TestExplain:
    def test_explain_full_optimizer(self, engine):
        text = engine.explain(EXAMPLE_21_TEXT)
        assert "derived" in text                 # Strategy 4 value lists
        assert "quantifier prefix: (empty)" in text
        assert "relation cardinalities" in text

    def test_explain_no_strategies_shows_prefix_and_join_terms(self, figure1):
        engine = QueryEngine(figure1, StrategyOptions.none())
        text = engine.explain(EXAMPLE_21_TEXT)
        assert "ALL p IN papers" in text
        assert "join term" in text
        assert "conjunction 3" in text

    def test_explain_constant_matrix(self, figure1):
        figure1.relation("papers").clear()
        engine = QueryEngine(figure1)
        text = engine.explain(
            "[<e.ename> OF EACH e IN employees: SOME p IN papers ((p.pyear = 1977))]"
        )
        assert "matrix is constant FALSE" in text

    def test_explain_lists_extended_ranges(self, engine):
        text = engine.explain(
            EXAMPLE_21_TEXT, StrategyOptions.only(extended_ranges=True)
        )
        assert "[EACH e IN employees" in text
        assert "[EACH p IN papers" in text

    def test_analyze_summary_reports_the_worst_q_error_of_its_own_table(self):
        # The summary line used to read a counter only adaptive reoptimization
        # moves: ``max q-error=0.00`` under a table whose worst row read 143.42.
        engine = QueryEngine(build_bibliography_database(scale=2))
        text = engine.explain(COCITATION_TEXT, analyze=True)
        table = [float(q) for q in re.findall(r"actual \d+, q-error (\d+\.\d+)", text)]
        (summary,) = re.findall(r"max q-error=(\d+\.\d+)", text)
        assert len(table) >= 4 and float(summary) == max(table) >= 1.0
        assert "  combination plan: built" in text  # ``run`` collects afresh, so it plans

    POINT = "[<e.ename> OF EACH e IN employees: (e.enr = 5)]"

    @staticmethod
    def _selection_block(text: str) -> list[str]:
        lines = text.splitlines()
        start = lines.index("selection pipeline:")
        return lines[start + 1 : lines.index("access paths (analyzed):")]

    def test_analyze_reports_the_probe_a_selection_took(self, figure1):
        figure1.create_index("employees", "enr")
        text = QueryEngine(figure1).explain(self.POINT, analyze=True)
        block = self._selection_block(text)
        assert block[0] == (
            "  e: probe of employees, elements read est 1, actual 1, q-error 1.00"
        )
        assert block[1:] == [
            "  operators:",
            "    range of e: streamed — (keys, records) chunks of 1, 2, 4, ... rows off the access path",
            "    projection: streamed — distinct on arrival: the result relation keeps a row's first witness",
        ]
        # One path, reported three times — as decided, as executed, as counted.
        assert text.count("  e: probe ind_employees_enr (employees.enr = 5, est. 1 vs scan 8)") == 2

    def test_analyze_reports_a_view_built_on_a_pin_from_the_result(self, figure1):
        """The static section is written from the execution's own paths: asking
        the selector again after the run would find the view built and say a
        plain probe over an execution that paid eight reads to build it."""
        figure1.create_index("employees", "enr")
        employees = figure1.relation("employees")
        employees.assign(employees.elements())  # past the build create_index published
        with figure1.pin_snapshot() as pin:
            engine = QueryEngine(pin)
            assert engine.run(self.POINT).access_paths["e"] == "scan employees"  # first sight
            text = engine.explain(self.POINT, analyze=True)
        taken = "  e: probe ind_employees_enr (employees.enr = 5, est. 9 vs scan 8) [builds the view: 8 reads]"
        assert text.count(taken) == 2 and "est. 1 vs scan" not in text
        assert self._selection_block(text)[0] == (
            "  e: probe of employees, elements read est 9, actual 9, q-error 1.00"
        )

    def test_analyze_reports_a_scan_and_the_inner_side_of_a_product(self, figure1):
        text = QueryEngine(figure1).explain(
            "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: "
            "(e.estatus <> professor)]",
            analyze=True,
        )
        block = self._selection_block(text)
        assert block[:2] == [
            "  e: scan of employees, elements read est 8, actual 8, q-error 1.00",
            "  c: scan of courses, elements read est 6, actual 6, q-error 1.00",
        ]
        assert "    range of c: materialized — read whole at the first fetch: " \
               "an inner side of the product" in block
