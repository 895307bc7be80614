"""Scanner for the PASCAL/R-style selection syntax.

Turns query text such as::

    [<e.ename> OF EACH e IN employees:
        (e.estatus = professor)
        AND SOME t IN timetable ((t.tenr = e.enr))]

into lexemes with one pass of a compiled regular expression.  Keywords are
case-insensitive; ``(* ... *)`` and ``{ ... }`` PASCAL comments and blanks
are trivia the pattern steps over.  Two readers share that pattern:

* :func:`tokenize` — the parser's input: one :class:`Token` per lexeme with
  its 1-based line and column, a final EOF token, and a
  :class:`~repro.errors.LexError` naming the position of anything that is
  not a lexeme of the language;
* :func:`scan_shape` — the plan cache's key: the lexemes with every constant
  operand replaced by a placeholder, plus the constants' values in source
  order.  It builds no :class:`Token` and validates nothing but the
  constants it lifts: a text is only ever *served* from a key some earlier
  text reached through :func:`tokenize` and the parser, and two texts with
  one key differ in nothing but those constants.

What a constant is, is the parser's decision (an operand of a comparison
that is no component access); :func:`scan_shape` can only guess from the
neighbouring lexemes, so whoever compiles a text checks the guess against
the parser — see :meth:`repro.service.QueryService.prepare`.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType
from repro.types.scalar import COMPARISON_OPERATORS

__all__ = ["tokenize", "scan_shape", "PLACEHOLDERS"]

#: Trivia, then one lexeme or the end of the text.  The pattern matches at
#: every position — after the trivia either a character is left, and the
#: last-but-one alternative takes any, or none is — so a scan never skips a
#: character and never backtracks into the trivia.  What is no lexeme of the
#: language is told apart by its first character: an unterminated comment
#: or string fails its own alternative and surfaces as a lone ``(`` before
#: ``*``, a ``{`` or a ``'``.  A string's closing quote is one no quote
#: follows, as PASCAL doubles the quotes inside.  ``\d`` is the decimal
#: digits ``int()`` reads; a wider notion of digit (``²``) is no number here.
#: The end of the text shows as an empty lexeme (twice after trailing
#: trivia: the scan finds the empty match next to a non-empty one again).
_LEXEME = re.compile(
    r"(?:\s+|\(\*.*?\*\)|\{.*?\})*"
    r"(\d+|\w+|'(?:[^']|'')*'(?!')|\$\w*|<>|<=|>=|.|\Z)",
    re.DOTALL,
)

_OPERATORS = frozenset(COMPARISON_OPERATORS)

_PUNCTUATION = {
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
}

#: What :func:`scan_shape` puts where a number, a string, an enumeration
#: label stood.  No lexeme is longer than one character and starts with ``?``.
NUMBER, STRING, LABEL = PLACEHOLDERS = ("?number", "?string", "?label")


def _string_value(lexeme: str) -> str:
    return lexeme[1:-1].replace("''", "'")


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    line, line_start, seen = 1, 0, 0

    def locate(offset: int) -> tuple[int, int]:
        # Offsets only grow; newlines inside the previous lexeme (a string
        # may span lines) are counted with the trivia that follows it.
        nonlocal line, line_start, seen
        newlines = text.count("\n", seen, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, offset) + 1
        seen = offset
        return line, offset - line_start + 1

    for match in _LEXEME.finditer(text):
        lexeme = match.group(1)
        if not lexeme:
            break
        position = locate(match.start(1))
        first = lexeme[0]
        if first.isalpha() or first == "_":
            upper = lexeme.upper()
            if upper in KEYWORDS:
                kind, value = TokenType.KEYWORD, upper
            else:
                kind, value = TokenType.IDENT, lexeme
        elif first.isdecimal():
            kind, value = TokenType.NUMBER, int(lexeme)
        elif first == "'":
            if len(lexeme) == 1:
                raise LexError("unterminated string literal", *position)
            kind, value = TokenType.STRING, _string_value(lexeme)
        elif first == "$":
            value = lexeme[1:]
            if not value or value[0].isdigit():
                raise LexError("expected a parameter name after '$'", *position)
            kind = TokenType.PARAM
        elif lexeme in _OPERATORS:
            kind, value = TokenType.OPERATOR, lexeme
        elif first == "{" or (first == "(" and text.startswith("*", match.end(1))):
            raise LexError("unterminated comment", *position)
        elif first in _PUNCTUATION:
            kind, value = _PUNCTUATION[first], first
        else:
            raise LexError(f"unexpected character {first!r}", *position)
        tokens.append(Token(kind, value, *position))
    tokens.append(Token(TokenType.EOF, None, *locate(len(text))))
    return tokens


def scan_shape(text: str) -> tuple[tuple[str, ...], tuple]:
    """``(shape, constants)``: the lexemes of ``text`` with its constants lifted.

    ``shape`` is the lexeme sequence, keywords upper-cased, with each number,
    string and bare-identifier operand replaced by its placeholder of
    :data:`PLACEHOLDERS`; ``constants`` holds the replaced values in source
    order, as :func:`tokenize` would value them.  A bare identifier counts
    as an operand when a comparison operator stands beside it and neither a
    dot nor ``AS`` does — which takes the ``<`` and ``>`` of the component
    list for operators, hence the dot and ``AS`` tests.  Anything that is no
    lexeme of the language stays in the shape as it is: such a shape equals
    no compiled text's.
    """
    lexemes = _LEXEME.findall(text)
    del lexemes[lexemes.index("") :]  # the end of the text
    constants = []
    last = len(lexemes) - 1
    for index, lexeme in enumerate(lexemes):
        first = lexeme[0]
        if first.isalpha() or first == "_":
            upper = lexeme.upper()
            if upper in KEYWORDS:
                lexemes[index] = upper
                continue
            before = lexemes[index - 1] if index else ""
            after = lexemes[index + 1] if index < last else ""
            if (
                (before in _OPERATORS or after in _OPERATORS)
                and before != "."
                and after != "."
                and before != "AS"
            ):
                constants.append(lexeme)
                lexemes[index] = LABEL
        elif first.isdecimal():
            constants.append(int(lexeme))
            lexemes[index] = NUMBER
        elif first == "'" and len(lexeme) > 1:
            constants.append(_string_value(lexeme))
            lexemes[index] = STRING
    return tuple(lexemes), tuple(constants)
