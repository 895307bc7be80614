"""Recursive-descent parser for PASCAL/R-style selection expressions.

The accepted syntax follows the paper's examples::

    [<e.ename> OF EACH e IN employees:
        (e.estatus = professor)
        AND
        (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
         OR
         SOME c IN courses ((c.clevel <= sophomore)
            AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]

Grammar (keywords are case-insensitive)::

    selection    : '[' '<' column {',' column} '>' OF binding {',' binding} ':' formula ']'
    column       : IDENT '.' IDENT [AS IDENT]
    binding      : EACH IDENT IN range
    range        : IDENT
                 | '[' EACH IDENT IN IDENT ':' formula ']'
    formula      : conjunction {OR conjunction}
    conjunction  : unary {AND unary}
    unary        : NOT unary
                 | (SOME | ALL) IDENT IN range '(' formula ')'
                 | primary
    primary      : '(' formula ')' | TRUE | FALSE | comparison
    comparison   : operand ('=' | '<>' | '<' | '<=' | '>' | '>=') operand
    operand      : IDENT '.' IDENT | NUMBER | STRING | IDENT | '$' IDENT

A bare identifier operand (e.g. ``professor``) denotes a constant — typically
an enumeration label — and is resolved to a typed value by
:class:`repro.calculus.typecheck.TypeChecker`.

Constants occur nowhere but as operands, so ``_parse_operand`` is where a
constant is recognised — and where ``Parser(tokens, lift=True)`` replaces
each by a positional parameter for the plan cache's shared plans.
"""

from __future__ import annotations

from repro.calculus.ast import (
    ALL,
    FALSE,
    SOME,
    TRUE,
    And,
    Comparison,
    Const,
    FieldRef,
    Formula,
    Not,
    Or,
    OutputColumn,
    Param,
    Quantified,
    RangeExpr,
    Selection,
    VariableBinding,
)
from typing import Sequence

from repro.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType

__all__ = ["parse_selection", "parse_formula", "Parser"]

#: Parentheses, NOTs and quantifiers may nest this deep.  The parser, the
#: type checker and the transformations all recurse over the nesting, so
#: hostile text must get a ParseError here, not a RecursionError later.
MAX_NESTING = 100


class Parser:
    """Token-stream parser producing calculus AST nodes.

    ``tokens`` is what :func:`~repro.lang.lexer.tokenize` returns (it ends
    with EOF).  With ``lift`` the *i*-th constant operand, in source order,
    parses to ``Param(str(i))`` instead of ``Const(value)`` — a name no text
    can spell, ``$`` before a digit being no token — and :attr:`lifted`
    holds the constants' token indexes afterwards.
    """

    def __init__(self, tokens: Sequence[Token], lift: bool = False) -> None:
        self._tokens = tokens
        self._position = 0
        self._lift = lift
        self.lifted: list[int] = []
        self._nesting = 0

    # -- token stream helpers --------------------------------------------------------

    def _current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type != TokenType.EOF:
            self._position += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current()
        return ParseError(f"{message}, found {token.value!r}", token.line, token.column)

    def _expect(self, token_type: str, value: object = None) -> Token:
        token = self._current()
        if token.type != token_type or (value is not None and token.value != value):
            expected = value if value is not None else token_type
            raise self._error(f"expected {expected!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._current()
        if not token.is_keyword(word):
            raise self._error(f"expected keyword {word!r}")
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        return self._current().is_keyword(word)

    # -- entry points ------------------------------------------------------------------

    def parse_selection(self) -> Selection:
        """Parse a complete ``[<...> OF ...: ...]`` selection."""
        self._expect(TokenType.LBRACKET)
        self._expect(TokenType.OPERATOR, "<")
        columns = [self._parse_column()]
        while self._current().type == TokenType.COMMA:
            self._advance()
            columns.append(self._parse_column())
        self._expect(TokenType.OPERATOR, ">")
        self._expect_keyword("OF")
        bindings = [self._parse_binding()]
        while self._current().type == TokenType.COMMA:
            self._advance()
            bindings.append(self._parse_binding())
        self._expect(TokenType.COLON)
        formula = self._parse_formula()
        self._expect(TokenType.RBRACKET)
        self._expect(TokenType.EOF)
        return Selection(columns, bindings, formula)

    def parse_formula_only(self) -> Formula:
        """Parse a standalone selection-expression formula."""
        formula = self._parse_formula()
        self._expect(TokenType.EOF)
        return formula

    # -- selection parts -------------------------------------------------------------------

    def _parse_column(self) -> OutputColumn:
        var = self._expect(TokenType.IDENT).value
        self._expect(TokenType.DOT)
        component = self._expect(TokenType.IDENT).value
        alias = None
        if self._at_keyword("AS"):
            self._advance()
            alias = self._expect(TokenType.IDENT).value
        return OutputColumn(var, component, alias)

    def _parse_binding(self) -> VariableBinding:
        self._expect_keyword("EACH")
        var = self._expect(TokenType.IDENT).value
        self._expect_keyword("IN")
        range_expr = self._parse_range(var)
        return VariableBinding(var, range_expr)

    def _parse_range(self, outer_var: str) -> RangeExpr:
        token = self._current()
        if token.type == TokenType.IDENT:
            self._advance()
            return RangeExpr(token.value)
        if token.type == TokenType.LBRACKET:
            self._advance()
            self._expect_keyword("EACH")
            inner_var = self._expect(TokenType.IDENT).value
            self._expect_keyword("IN")
            relation = self._expect(TokenType.IDENT).value
            self._expect(TokenType.COLON)
            restriction = self._parse_formula()
            self._expect(TokenType.RBRACKET)
            if inner_var != outer_var:
                restriction = _rename_variable(restriction, inner_var, outer_var)
            return RangeExpr(relation, restriction)
        raise self._error("expected a relation name or an extended range expression")

    # -- formulae ---------------------------------------------------------------------------

    def _parse_formula(self) -> Formula:
        operands = [self._parse_conjunction()]
        while self._at_keyword("OR"):
            self._advance()
            operands.append(self._parse_conjunction())
        if len(operands) == 1:
            return operands[0]
        return Or(*operands)

    def _parse_conjunction(self) -> Formula:
        operands = [self._parse_unary()]
        while self._at_keyword("AND"):
            self._advance()
            operands.append(self._parse_unary())
        if len(operands) == 1:
            return operands[0]
        return And(*operands)

    def _parse_unary(self) -> Formula:
        # Every level of nesting — a parenthesis, a NOT, a quantifier, an
        # extended range — passes through here once.
        self._nesting += 1
        if self._nesting > MAX_NESTING:
            raise self._error(f"formula nested deeper than {MAX_NESTING} levels")
        try:
            if self._at_keyword("NOT"):
                self._advance()
                return Not(self._parse_unary())
            if self._at_keyword("SOME") or self._at_keyword("ALL"):
                kind = SOME if self._advance().value == "SOME" else ALL
                var = self._expect(TokenType.IDENT).value
                self._expect_keyword("IN")
                range_expr = self._parse_range(var)
                self._expect(TokenType.LPAREN)
                body = self._parse_formula()
                self._expect(TokenType.RPAREN)
                return Quantified(kind, var, range_expr, body)
            return self._parse_primary()
        finally:
            self._nesting -= 1

    def _parse_primary(self) -> Formula:
        token = self._current()
        if token.type == TokenType.LPAREN:
            self._advance()
            inner = self._parse_formula()
            self._expect(TokenType.RPAREN)
            return inner
        if token.is_keyword("TRUE"):
            self._advance()
            return TRUE
        if token.is_keyword("FALSE"):
            self._advance()
            return FALSE
        return self._parse_comparison()

    def _parse_comparison(self) -> Comparison:
        left = self._parse_operand()
        op_token = self._current()
        if op_token.type != TokenType.OPERATOR:
            raise self._error("expected a comparison operator")
        self._advance()
        right = self._parse_operand()
        return Comparison(left, op_token.value, right)

    def _parse_operand(self):
        token = self._current()
        if token.type == TokenType.IDENT:
            self._advance()
            if self._current().type == TokenType.DOT:
                self._advance()
                component = self._expect(TokenType.IDENT).value
                return FieldRef(token.value, component)
            return self._constant(token)
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return self._constant(token)
        if token.type == TokenType.PARAM:
            self._advance()
            return Param(token.value)
        raise self._error("expected an operand (component access or constant)")

    def _constant(self, token: Token) -> Const | Param:
        """The operand for the constant token just consumed."""
        if not self._lift:
            return Const(token.value)
        self.lifted.append(self._position - 1)
        return Param(str(len(self.lifted) - 1))


def _rename_variable(formula: Formula, old: str, new: str) -> Formula:
    """Rename free occurrences of ``old`` to ``new`` in ``formula``.

    Only needed for extended range expressions written with a different inner
    variable name than the bound variable they restrict.
    """
    from repro.calculus.ast import BoolConst

    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, Comparison):
        def rename_operand(operand):
            if isinstance(operand, FieldRef) and operand.var == old:
                return FieldRef(new, operand.field)
            return operand

        return Comparison(rename_operand(formula.left), formula.op, rename_operand(formula.right))
    if isinstance(formula, Not):
        return Not(_rename_variable(formula.child, old, new))
    if isinstance(formula, And):
        return And(*(_rename_variable(o, old, new) for o in formula.operands))
    if isinstance(formula, Or):
        return Or(*(_rename_variable(o, old, new) for o in formula.operands))
    if isinstance(formula, Quantified):
        if formula.var == old:
            return formula
        range_expr = formula.range
        if range_expr.restriction is not None:
            range_expr = RangeExpr(
                range_expr.relation, _rename_variable(range_expr.restriction, old, new)
            )
        return Quantified(formula.kind, formula.var, range_expr, _rename_variable(formula.body, old, new))
    raise ParseError(f"cannot rename variables in {formula!r}")


def parse_selection(text: str) -> Selection:
    """Parse ``text`` as a complete selection."""
    return Parser(tokenize(text)).parse_selection()


def parse_formula(text: str) -> Formula:
    """Parse ``text`` as a standalone selection-expression formula."""
    return Parser(tokenize(text)).parse_formula_only()
