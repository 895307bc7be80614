"""Unit tests for the calculus AST and the builder API."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.calculus import builder as q
from repro.calculus.ast import (
    ALL,
    FALSE,
    SOME,
    TRUE,
    And,
    Comparison,
    Const,
    FieldRef,
    Not,
    Or,
    OutputColumn,
    Quantified,
    RangeExpr,
    Selection,
)
from repro.errors import CalculusError
from repro.lang.parser import parse_selection

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestComparisons:
    def test_monadic_detection(self):
        term = q.eq(("e", "estatus"), "professor")
        assert term.is_monadic()
        assert not term.is_dyadic()
        assert term.variables() == ("e",)

    def test_dyadic_detection(self):
        term = q.eq(("e", "enr"), ("t", "tenr"))
        assert term.is_dyadic()
        assert term.variables() == ("e", "t")

    def test_mentions_and_operand_for(self):
        term = q.eq(("e", "enr"), ("t", "tenr"))
        assert term.mentions("t")
        assert not term.mentions("p")
        assert term.operand_for("t") == FieldRef("t", "tenr")
        with pytest.raises(CalculusError):
            term.operand_for("p")

    def test_invalid_operator_raises(self):
        with pytest.raises(CalculusError):
            Comparison(Const(1), "==", Const(2))

    def test_constant_only_comparison_has_no_variables(self):
        assert Comparison(Const(1), "=", Const(1)).variables() == ()


class TestConnectives:
    def test_and_flattens(self):
        a, b, c = q.eq(("x", "f"), 1), q.eq(("x", "f"), 2), q.eq(("x", "f"), 3)
        assert And(And(a, b), c).operands == (a, b, c)

    def test_or_flattens(self):
        a, b, c = q.eq(("x", "f"), 1), q.eq(("x", "f"), 2), q.eq(("x", "f"), 3)
        assert Or(a, Or(b, c)).operands == (a, b, c)

    def test_empty_connectives_raise(self):
        with pytest.raises(CalculusError):
            And()
        with pytest.raises(CalculusError):
            Or()

    def test_builder_single_operand_passthrough(self):
        a = q.eq(("x", "f"), 1)
        assert q.and_(a) is a
        assert q.or_(a) is a

    def test_children_and_walk(self):
        a, b = q.eq(("x", "f"), 1), q.eq(("x", "f"), 2)
        formula = q.and_(a, q.not_(b))
        nodes = list(formula.walk())
        assert a in nodes and b in nodes
        assert any(isinstance(n, Not) for n in nodes)

    def test_structural_equality(self):
        build = lambda: q.and_(q.eq(("x", "f"), 1), q.ne(("x", "f"), 2))
        assert build() == build()
        assert hash(build()) == hash(build())


class TestHashOnce:
    """Join terms, operands, conjunctions and ranges hash their fields once;
    the value stays out of ``==``, ``repr`` and pickles."""

    TEXT = (
        "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND "
        "SOME p IN papers ((e.enr = p.penr) AND (p.pyear <> 1977))]"
    )

    def test_equal_nodes_from_two_parses_hash_alike(self):
        first, second = parse_selection(self.TEXT), parse_selection(self.TEXT)
        term, other = first.formula.operands[0], second.formula.operands[0]
        assert term is not other and term == other and hash(term) == hash(other)
        assert term.__dict__["_hash"] == hash(term)  # kept after the first hash
        assert repr(term) == repr(other) and "_hash" not in repr(term)
        assert first.formula == second.formula and hash(first.formula) == hash(second.formula)
        assert RangeExpr("papers", term) == RangeExpr("papers", other)
        assert hash(RangeExpr("papers", term)) == hash(RangeExpr("papers", other))

    def test_a_pickle_round_trip_hashes_again(self):
        term = parse_selection(self.TEXT).formula
        hash(term)
        copy = pickle.loads(pickle.dumps(term))
        assert "_hash" not in copy.__dict__ and copy == term and hash(copy) == hash(term)
        # A str hash is salted per process: a node pickled by another
        # interpreter, after it hashed the node there, must hash as ours does.
        script = (
            "import pickle, sys\n"
            "from repro.lang.parser import parse_selection\n"
            f"term = parse_selection({self.TEXT!r}).formula\n"
            "hash(term)\n"
            "sys.stdout.buffer.write(pickle.dumps(term))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="1982", PYTHONPATH=SRC)
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        foreign = pickle.loads(completed.stdout)
        assert foreign == term and hash(foreign) == hash(term)
        assert {foreign: 1}[term] == 1


class TestQuantifiersAndRanges:
    def test_quantifier_kinds(self):
        body = q.eq(("p", "pyear"), 1977)
        assert q.some("p", "papers", body).is_existential()
        assert q.all_("p", "papers", body).is_universal()

    def test_invalid_kind_raises(self):
        with pytest.raises(CalculusError):
            Quantified("EXISTS", "p", RangeExpr("papers"), TRUE)

    def test_range_extension(self):
        base = RangeExpr("papers")
        assert not base.is_extended()
        extended = base.extend(q.eq(("p", "pyear"), 1977))
        assert extended.is_extended()
        further = extended.extend(q.ne(("p", "penr"), 3))
        assert isinstance(further.restriction, And)

    def test_builder_range(self):
        r = q.range_("courses", q.le(("c", "clevel"), "sophomore"))
        assert r.relation == "courses"
        assert r.is_extended()

    def test_bool_constants(self):
        assert TRUE.value and not FALSE.value
        assert repr(TRUE) == "TRUE"


class TestSelection:
    def test_construction_via_builder(self):
        selection = q.selection(
            columns=[("e", "ename")],
            each=[("e", "employees")],
            where=q.eq(("e", "estatus"), "professor"),
        )
        assert selection.free_variables == ("e",)
        assert selection.columns[0] == OutputColumn("e", "ename")
        assert selection.binding_for("e").range.relation == "employees"

    def test_alias_column(self):
        selection = q.selection(
            columns=[q.column("e", "ename", alias="name")],
            each=[("e", "employees")],
            where=TRUE,
        )
        assert selection.columns[0].name == "name"

    def test_requires_columns_and_bindings(self):
        with pytest.raises(CalculusError):
            Selection([], [("e", "employees")], TRUE)
        with pytest.raises(CalculusError):
            Selection([("e", "ename")], [], TRUE)

    def test_rejects_duplicate_free_variables(self):
        with pytest.raises(CalculusError):
            Selection([("e", "ename")], [("e", "employees"), ("e", "papers")], TRUE)

    def test_rejects_columns_over_unbound_variables(self):
        with pytest.raises(CalculusError):
            Selection([("x", "ename")], [("e", "employees")], TRUE)

    def test_binding_for_unknown_raises(self):
        selection = q.selection([("e", "ename")], [("e", "employees")], TRUE)
        with pytest.raises(CalculusError):
            selection.binding_for("z")

    def test_with_formula_and_with_bindings(self):
        selection = q.selection([("e", "ename")], [("e", "employees")], TRUE)
        updated = selection.with_formula(FALSE)
        assert updated.formula is FALSE
        assert updated.columns == selection.columns
        rebound = selection.with_bindings([q.each("e", q.range_("employees", TRUE))])
        assert rebound.bindings[0].range.is_extended()

    def test_multiple_free_variables(self):
        selection = q.selection(
            columns=[("e", "ename"), ("c", "ctitle")],
            each=[("e", "employees"), ("c", "courses")],
            where=TRUE,
        )
        assert selection.free_variables == ("e", "c")
