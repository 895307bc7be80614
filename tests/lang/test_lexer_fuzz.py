"""Hostile query text never escapes as anything but a ``PascalRError``.

ROADMAP item 6: whatever a client sends as query text, the scanner, the
parser, the type checker and the service answer with rows or with an error
of the library's own hierarchy — never a ``ValueError`` out of ``int()``
(``"e.a = ²"``: ``str.isdigit`` accepts what ``int`` refuses), an
``IndexError`` or a ``RecursionError``.  Two generators: arbitrary unicode
text, and the library's own queries with hostile fragments spliced in —
comments (closed and not), quotes, ``$``, digits of several scripts, ``AS``
aliases, operators — which get much further into the parser and the plan
cache than noise does.

CI runs this file a second time with ``--hypothesis-seed=1982``; to
reproduce a failure of that step locally, pass the same option.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.errors import LexError, ParseError, PascalRError
from repro.lang.lexer import scan_shape, tokenize
from repro.lang.tokens import Token, TokenType
from repro.workloads import queries
from repro.workloads.university import figure1_database

FUZZ_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

LIBRARY = [
    getattr(queries, name)
    for name in queries.__all__
    if isinstance(getattr(queries, name), str)
]

FRAGMENTS = [
    "(* c *)", "{ c }", "(*", "*)", "{", "}", "(* 1977 'q' $p *)",
    "'", "''", "'x'", "'it''s'", "$", "$p", "$1", "$ year",
    "0", "7", "1977", "10002", "²", "٣", "½", "1²",
    " AS name", " as e", "é", "ſome", "Ω", "_",
    "<", ">", "<>", "<=", ">=", "=", ".", ",", ":", "[", "]", "(", ")",
    "professor", "sophomore", " AND ", " OR ", " NOT ", " SOME ", " ALL ", " TRUE ",
    "\n", "\r\n", "\f", "\t", "\x00", "#", ";", "*",
]


@st.composite
def spliced_queries(draw) -> str:
    """A library query with up to six hostile fragments spliced in anywhere."""
    text = draw(st.sampled_from(LIBRARY))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        position = draw(st.integers(min_value=0, max_value=len(text)))
        fragment = draw(st.sampled_from(FRAGMENTS))
        if draw(st.booleans()):  # overwrite instead of insert
            text = text[:position] + fragment + text[position + len(fragment):]
        else:
            text = text[:position] + fragment + text[position:]
    return text


QUERY_TEXTS = st.one_of(st.text(max_size=60), spliced_queries())


@pytest.fixture(scope="module")
def cursor():
    with connect(figure1_database()) as connection:
        yield connection.cursor()


@FUZZ_SETTINGS
@given(text=QUERY_TEXTS)
def test_tokenize_yields_tokens_or_a_lex_error(text):
    try:
        tokens = tokenize(text)
    except LexError as exc:
        assert exc.line >= 1 and exc.column >= 1
        return
    assert all(isinstance(token, Token) for token in tokens)
    assert tokens[-1].type == TokenType.EOF
    # The key scan sees the same lexemes and values its constants alike:
    # every number and string is among them, in order (labels come on top).
    shape, constants = scan_shape(text)
    assert len(shape) == len(tokens) - 1
    lifted = iter(constants)
    for token in tokens:
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            assert any(
                type(value) is type(token.value) and value == token.value for value in lifted
            )


@FUZZ_SETTINGS
@given(text=QUERY_TEXTS)
def test_cursor_execute_yields_rows_or_a_library_error(cursor, text):
    try:
        cursor.execute(text)
        rows = cursor.fetchall()
    except PascalRError:
        return
    assert isinstance(rows, list)


def test_the_digit_int_refuses_is_a_lex_error_with_a_position(cursor):
    with pytest.raises(LexError) as excinfo:
        tokenize("e.a = ²")
    assert (excinfo.value.line, excinfo.value.column) == (1, 7)
    with pytest.raises(LexError):
        cursor.execute("[<e.ename> OF EACH e IN employees: (e.enr = ²)]")


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("NOT ", ""), ("NOT (", ")")])
def test_nesting_beyond_the_limit_is_a_parse_error(cursor, opener, closer):
    """Parser, type checker and transformations recurse over the nesting."""
    def query(depth):
        body = opener * depth + "(e.enr = 1)" + closer * depth
        return f"[<e.ename> OF EACH e IN employees: {body}]"

    cursor.execute(query(40))
    assert len(cursor.fetchall()) == 1
    with pytest.raises(ParseError, match="nested deeper"):
        cursor.execute(query(5000))
