"""Unit tests for the lexer and the PASCAL/R-style selection parser."""

import hashlib

import pytest

from repro.calculus.ast import (
    ALL,
    And,
    Comparison,
    Const,
    FieldRef,
    Not,
    Or,
    Param,
    Quantified,
    SOME,
)
from repro.errors import LexError, ParseError
from repro.lang.lexer import PLACEHOLDERS, scan_shape, tokenize
from repro.lang.parser import Parser, parse_formula, parse_selection
from repro.lang.tokens import TokenType
from repro.workloads import queries as university_queries
from repro.workloads.bibliography import queries as citation_queries
from repro.workloads.queries import EXAMPLE_21_TEXT, example_21


class TestLexer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("some ALL each In of")
        assert [t.value for t in tokens[:-1]] == ["SOME", "ALL", "EACH", "IN", "OF"]
        assert all(t.type == TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_numbers_strings(self):
        tokens = tokenize("employees 1977 'Highman'")
        assert tokens[0].type == TokenType.IDENT
        assert tokens[1].value == 1977
        assert tokens[2].type == TokenType.STRING
        assert tokens[2].value == "Highman"

    def test_two_character_operators(self):
        tokens = tokenize("<> <= >= < > =")
        assert [t.value for t in tokens[:-1]] == ["<>", "<=", ">=", "<", ">", "="]

    def test_punctuation(self):
        tokens = tokenize("[ ] ( ) , : .")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.LBRACKET,
            TokenType.RBRACKET,
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.COLON,
            TokenType.DOT,
        ]

    def test_comments_are_skipped(self):
        tokens = tokenize("a (* PASCAL comment *) b { braces } c")
        assert [t.value for t in tokens[:-1]] == ["a", "b", "c"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_positions_are_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'open")

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("(* never closed")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_ends_with_eof(self):
        assert tokenize("")[-1].type == TokenType.EOF


# ---------------------------------------------------------------------- golden table
#
# Recorded from the character-stepping ``Lexer`` class this scanner replaced,
# on the last commit that had it: ``(type, value, line, column)`` per token,
# or the text of the ``LexError``.  The regular-expression scanner must
# reproduce every entry exactly.

#: The texts the examples send (inline in ``examples/*.py``).
EXAMPLE_TEXTS = {
    "examples.authors_2023":
        "[<a.aname> OF EACH a IN authors: "
        " SOME w IN authorship (SOME p IN papers "
        "  ((w.wanr = a.anr) AND (w.wpnr = p.pnr) AND (p.pyear = 2023)))]",
    "examples.cocited":
        "[<a.ptitle> OF EACH a IN papers: "
        " SOME c1 IN citations (SOME c2 IN citations "
        "  ((c1.cdst = c2.cdst) AND (c1.csrc = a.pnr) AND (c2.csrc <> a.pnr)))]",
    "examples.borrowers": """
    [<r.rname> OF EACH r IN readers:
        SOME l IN loans ((l.lrnr = r.rnr)
            AND SOME b IN [EACH b IN books: (b.bgenre = databases)]
                ((b.bnr = l.lbnr)))]
    """,
}


@pytest.fixture(scope="module")
def library_texts(adhoc_paper_templates) -> dict[str, str]:
    """Every query text of both workloads, the five e2e templates, the examples."""
    texts = {}
    for module in (university_queries, citation_queries):
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, str):
                texts[name] = value
    for label, template in adhoc_paper_templates.items():
        texts["e2e." + label] = template.format(
            k=4242, status="professor", year=1977, level="sophomore"
        )
    texts.update(EXAMPLE_TEXTS)
    return texts


def _lexed(text):
    try:
        return [(t.type, t.value, t.line, t.column) for t in tokenize(text)]
    except LexError as exc:
        return str(exc)


#: Library texts are long and plain, so the table holds, per text, the token
#: count and the first 16 hex digits of the SHA-256 of ``repr`` of the token
#: list; the hand-written edge list below is spelled out.
LIBRARY_GOLDEN = {
    "EXAMPLE_21_TEXT": (87, "bcc33e609974857e"),
    "EXAMPLE_45_TEXT": (100, "4c82f0d6b21bd310"),
    "PROFESSORS_TEXT": (25, "3403b942f23dc234"),
    "TEACHES_LOW_LEVEL_TEXT": (53, "21ac2862f0cde60c"),
    "NO_1977_PAPERS_TEXT": (37, "727f815f70bdf873"),
    "PUBLISHED_EVERY_YEAR_QUERY": (39, "12ad9cbccc33cd8f"),
    "SENIORITY_TEXT": (40, "8778ff88790dc02a"),
    "OTHERS_PUBLISHED_1977_TEXT": (61, "b8c8e3ec49ad5425"),
    "PUBLISHING_TEACHERS_TEXT": (69, "e197fbbae8c83f40"),
    "STATUS_PARAM_TEXT": (25, "ef86489f69fc43c3"),
    "NO_PAPERS_IN_YEAR_PARAM_TEXT": (37, "46015d27833c9f02"),
    "RUNNING_QUERY_PARAM_TEXT": (87, "f54a4eb724ecb664"),
    "TEACHES_AT_LEVEL_PARAM_TEXT": (53, "0d187557b4ddd9cb"),
    "COAUTHOR_PAIRS_TEXT": (74, "43a1fff034d458e0"),
    "CO_COAUTHORS_TEXT": (93, "18aad668de306223"),
    "CITES_THE_PROLIFIC_TEXT": (77, "f5574c20a90915e9"),
    "WELL_CITED_VENUES_TEXT": (43, "64d66e5a71028afb"),
    "SELF_CITERS_TEXT": (71, "aba492567800243d"),
    "COCITATION_TEXT": (79, "7f0d807463689b6a"),
    "RECENT_PAPERS_PARAM_TEXT": (21, "34d756ed324b584e"),
    "COAUTHORS_OF_PARAM_TEXT": (61, "c106a2bf428c7ffa"),
    "VENUE_PAPERS_PARAM_TEXT": (37, "1106898fdb955ffb"),
    "e2e.running_query": (95, "edc8ea13d2432dee"),
    "e2e.all_branch": (45, "3e631f8ec5285bd4"),
    "e2e.some_branch": (61, "38153f1bdd1592ed"),
    "e2e.others_published": (69, "274e726f67ca90c3"),
    "e2e.publishing_teachers": (77, "d1ac6cb77c9c1ed3"),
    "examples.authors_2023": (53, "e4fc05ddb2224444"),
    "examples.cocited": (55, "6e341aff664bacb7"),
    "examples.borrowers": (58, "493e634462306a35"),
}

EDGE_GOLDEN = [
    ('', [('EOF', None, 1, 1)]),
    ('   \n\t ', [('EOF', None, 2, 3)]),
    ('(* a (* b *) c', [('IDENT', 'c', 1, 14), ('EOF', None, 1, 15)]),
    ('(* a (* b *) c *)', "unexpected character '*' (line 1, column 16)"),
    ('{ a { b } c', [('IDENT', 'c', 1, 11), ('EOF', None, 1, 12)]),
    ('{ (* } x (* { *) y', [('IDENT', 'x', 1, 8), ('IDENT', 'y', 1, 18), ('EOF', None, 1, 19)]),
    ('(*)', 'unterminated comment (line 1, column 1)'),
    ('(**)x', [('IDENT', 'x', 1, 5), ('EOF', None, 1, 6)]),
    ('(* never closed', 'unterminated comment (line 1, column 1)'),
    ('a { never closed', 'unterminated comment (line 1, column 3)'),
    ("x (* 1977 'q' $p *) y { 12 '' $ } z", [
        ('IDENT', 'x', 1, 1), ('IDENT', 'y', 1, 21), ('IDENT', 'z', 1, 35),
        ('EOF', None, 1, 36),
    ]),
    ("'it''s'", [('STRING', "it's", 1, 1), ('EOF', None, 1, 8)]),
    ("''", [('STRING', '', 1, 1), ('EOF', None, 1, 3)]),
    ("''''", [('STRING', "'", 1, 1), ('EOF', None, 1, 5)]),
    ("'a''' b", [('STRING', "a'", 1, 1), ('IDENT', 'b', 1, 7), ('EOF', None, 1, 8)]),
    ("'abc''", 'unterminated string literal (line 1, column 1)'),
    ("'open", 'unterminated string literal (line 1, column 1)'),
    ("x\n  'two\nlines' y", [
        ('IDENT', 'x', 1, 1), ('STRING', 'two\nlines', 2, 3), ('IDENT', 'y', 3, 8),
        ('EOF', None, 3, 9),
    ]),
    ('a\r\nb\x0cc\x0bd\te', [
        ('IDENT', 'a', 1, 1), ('IDENT', 'b', 2, 1), ('IDENT', 'c', 2, 3), ('IDENT', 'd', 2, 5),
        ('IDENT', 'e', 2, 7), ('EOF', None, 2, 8),
    ]),
    ('some Some SOME sOmE all each in of and or not as true false', [
        ('KEYWORD', 'SOME', 1, 1), ('KEYWORD', 'SOME', 1, 6), ('KEYWORD', 'SOME', 1, 11),
        ('KEYWORD', 'SOME', 1, 16), ('KEYWORD', 'ALL', 1, 21), ('KEYWORD', 'EACH', 1, 25),
        ('KEYWORD', 'IN', 1, 30), ('KEYWORD', 'OF', 1, 33), ('KEYWORD', 'AND', 1, 36),
        ('KEYWORD', 'OR', 1, 40), ('KEYWORD', 'NOT', 1, 43), ('KEYWORD', 'AS', 1, 47),
        ('KEYWORD', 'TRUE', 1, 50), ('KEYWORD', 'FALSE', 1, 55), ('EOF', None, 1, 60),
    ]),
    ('OFF INN ALLOT _x x_1 w1 w2', [
        ('IDENT', 'OFF', 1, 1), ('IDENT', 'INN', 1, 5), ('IDENT', 'ALLOT', 1, 9),
        ('IDENT', '_x', 1, 15), ('IDENT', 'x_1', 1, 18), ('IDENT', 'w1', 1, 22),
        ('IDENT', 'w2', 1, 25), ('EOF', None, 1, 27),
    ]),
    ('a<>b<=c>=d<e>f=g', [
        ('IDENT', 'a', 1, 1), ('OPERATOR', '<>', 1, 2), ('IDENT', 'b', 1, 4),
        ('OPERATOR', '<=', 1, 5), ('IDENT', 'c', 1, 7), ('OPERATOR', '>=', 1, 8),
        ('IDENT', 'd', 1, 10), ('OPERATOR', '<', 1, 11), ('IDENT', 'e', 1, 12),
        ('OPERATOR', '>', 1, 13), ('IDENT', 'f', 1, 14), ('OPERATOR', '=', 1, 15),
        ('IDENT', 'g', 1, 16), ('EOF', None, 1, 17),
    ]),
    ('<<= >>= <>> =<', [
        ('OPERATOR', '<', 1, 1), ('OPERATOR', '<=', 1, 2), ('OPERATOR', '>', 1, 5),
        ('OPERATOR', '>=', 1, 6), ('OPERATOR', '<>', 1, 9), ('OPERATOR', '>', 1, 11),
        ('OPERATOR', '=', 1, 13), ('OPERATOR', '<', 1, 14), ('EOF', None, 1, 15),
    ]),
    ('(1977 = p.pyear)', [
        ('LPAREN', '(', 1, 1), ('NUMBER', 1977, 1, 2), ('OPERATOR', '=', 1, 7),
        ('IDENT', 'p', 1, 9), ('DOT', '.', 1, 10), ('IDENT', 'pyear', 1, 11),
        ('RPAREN', ')', 1, 16), ('EOF', None, 1, 17),
    ]),
    ("('Highman' <> e.ename) AND (professor = e.estatus)", [
        ('LPAREN', '(', 1, 1), ('STRING', 'Highman', 1, 2), ('OPERATOR', '<>', 1, 12),
        ('IDENT', 'e', 1, 15), ('DOT', '.', 1, 16), ('IDENT', 'ename', 1, 17),
        ('RPAREN', ')', 1, 22), ('KEYWORD', 'AND', 1, 24), ('LPAREN', '(', 1, 28),
        ('IDENT', 'professor', 1, 29), ('OPERATOR', '=', 1, 39), ('IDENT', 'e', 1, 41),
        ('DOT', '.', 1, 42), ('IDENT', 'estatus', 1, 43), ('RPAREN', ')', 1, 50),
        ('EOF', None, 1, 51),
    ]),
    ('[<e.ename AS name> OF EACH e IN employees: (e.enr<=10)]', [
        ('LBRACKET', '[', 1, 1), ('OPERATOR', '<', 1, 2), ('IDENT', 'e', 1, 3),
        ('DOT', '.', 1, 4), ('IDENT', 'ename', 1, 5), ('KEYWORD', 'AS', 1, 11),
        ('IDENT', 'name', 1, 14), ('OPERATOR', '>', 1, 18), ('KEYWORD', 'OF', 1, 20),
        ('KEYWORD', 'EACH', 1, 23), ('IDENT', 'e', 1, 28), ('KEYWORD', 'IN', 1, 30),
        ('IDENT', 'employees', 1, 33), ('COLON', ':', 1, 42), ('LPAREN', '(', 1, 44),
        ('IDENT', 'e', 1, 45), ('DOT', '.', 1, 46), ('IDENT', 'enr', 1, 47),
        ('OPERATOR', '<=', 1, 50), ('NUMBER', 10, 1, 52), ('RPAREN', ')', 1, 54),
        ('RBRACKET', ']', 1, 55), ('EOF', None, 1, 56),
    ]),
    ('007 12ab 1_000', [
        ('NUMBER', 7, 1, 1), ('NUMBER', 12, 1, 5), ('IDENT', 'ab', 1, 7), ('NUMBER', 1, 1, 10),
        ('IDENT', '_000', 1, 11), ('EOF', None, 1, 15),
    ]),
    ('$year $_x $max_year_2', [
        ('PARAM', 'year', 1, 1), ('PARAM', '_x', 1, 7), ('PARAM', 'max_year_2', 1, 11),
        ('EOF', None, 1, 22),
    ]),
    ('$ year', "expected a parameter name after '$' (line 1, column 1)"),
    ('$1year', "expected a parameter name after '$' (line 1, column 1)"),
    ('$', "expected a parameter name after '$' (line 1, column 1)"),
    ('a # b', "unexpected character '#' (line 1, column 3)"),
    ('a\n  ? b', "unexpected character '?' (line 2, column 3)"),
    ('x * y', "unexpected character '*' (line 1, column 3)"),
    ("café = 'über'", [
        ('IDENT', 'café', 1, 1), ('OPERATOR', '=', 1, 6), ('STRING', 'über', 1, 8),
        ('EOF', None, 1, 14),
    ]),
    ('e.a = ٣٤', [
        ('IDENT', 'e', 1, 1), ('DOT', '.', 1, 2), ('IDENT', 'a', 1, 3), ('OPERATOR', '=', 1, 5),
        ('NUMBER', 34, 1, 7), ('EOF', None, 1, 9),
    ]),
    ('[ ] ( ) , : . ;', "unexpected character ';' (line 1, column 15)"),
]


class TestLexerGoldenTable:
    def test_the_table_covers_the_library(self, library_texts):
        assert sorted(library_texts) == sorted(LIBRARY_GOLDEN)

    @pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
    def test_library_text_tokenizes_as_the_old_lexer_did(self, library_texts, name):
        tokens = _lexed(library_texts[name])
        digest = hashlib.sha256(repr(tokens).encode()).hexdigest()[:16]
        assert (len(tokens), digest) == LIBRARY_GOLDEN[name], tokens

    @pytest.mark.parametrize("text, expected", EDGE_GOLDEN, ids=[repr(t) for t, _ in EDGE_GOLDEN])
    def test_edge_case_tokenizes_as_the_old_lexer_did(self, text, expected):
        assert _lexed(text) == expected


class TestShapeScan:
    """``scan_shape`` against ``tokenize`` and the parser, over the same corpus."""

    @pytest.mark.parametrize("name", sorted(LIBRARY_GOLDEN))
    def test_the_guess_is_what_the_parser_lifts(self, library_texts, name):
        text = library_texts[name]
        shape, constants = scan_shape(text)
        tokens = tokenize(text)
        parser = Parser(tokens, lift=True)
        parser.parse_selection()
        assert len(shape) == len(tokens) - 1
        assert parser.lifted == [i for i, lexeme in enumerate(shape) if lexeme in PLACEHOLDERS]
        assert [tokens[i].value for i in parser.lifted] == list(constants)

    def test_aliases_and_the_component_list_are_no_constants(self):
        shape, constants = scan_shape(
            "[<e.ename AS name, e.enr> OF EACH e IN employees: (10 >= e.enr)]"
        )
        assert constants == (10,)
        assert "name" in shape and "ename" in shape and "enr" in shape

    def test_comments_and_trivia_do_not_reach_the_shape(self):
        plain = scan_shape("[<e.a> OF EACH e IN r: (e.a = 'x''y') and (e.b <> lbl)]")
        noisy = scan_shape(
            "[ <e.a> of {1977 'q' $p} EACH e\r\n IN r :(e.a='x''y')AND(* 12 $ '' *)(e.b<>lbl) ]  "
        )
        assert plain == noisy
        assert plain[1] == ("x'y", "lbl")

    def test_kinds_of_constant_make_different_shapes(self):
        shapes = {
            scan_shape(f"(e.a = {constant})")[0] for constant in ("1", "'1'", "one", "$one")
        }
        assert len(shapes) == 4

    def test_what_is_no_lexeme_stays_in_the_shape(self):
        for text in ("(e.a = ²)", "(e.a = 'open)", "(e.a = 1) (* open", "(e.a = $1)"):
            shape, _ = scan_shape(text)
            assert shape != scan_shape("(e.a = 1)")[0]
            with pytest.raises(LexError):
                tokenize(text)


class TestFormulaParsing:
    def test_simple_comparison(self):
        formula = parse_formula("(e.estatus = professor)")
        assert formula == Comparison(FieldRef("e", "estatus"), "=", Const("professor"))

    def test_precedence_and_binds_tighter_than_or(self):
        formula = parse_formula("(a.x = 1) OR (a.y = 2) AND (a.z = 3)")
        assert isinstance(formula, Or)
        assert isinstance(formula.operands[1], And)

    def test_not(self):
        formula = parse_formula("NOT (a.x = 1)")
        assert isinstance(formula, Not)

    def test_quantifiers(self):
        formula = parse_formula("SOME t IN timetable ((t.tenr = e.enr))")
        assert isinstance(formula, Quantified)
        assert formula.kind == SOME
        assert formula.range.relation == "timetable"
        universal = parse_formula("ALL p IN papers ((p.pyear <> 1977))")
        assert universal.kind == ALL

    def test_extended_range_in_quantifier(self):
        formula = parse_formula(
            "ALL p IN [EACH p IN papers: (p.pyear = 1977)] ((p.penr <> e.enr))"
        )
        assert formula.range.is_extended()

    def test_extended_range_with_different_inner_variable_is_renamed(self):
        formula = parse_formula(
            "ALL p IN [EACH x IN papers: (x.pyear = 1977)] ((p.penr <> e.enr))"
        )
        restriction = formula.range.restriction
        assert restriction.left == FieldRef("p", "pyear")

    def test_true_false_constants(self):
        assert parse_formula("true").value is True
        assert parse_formula("FALSE").value is False

    def test_numbers_and_strings_as_operands(self):
        formula = parse_formula("(e.ename = 'Highman')")
        assert formula.right == Const("Highman")

    def test_missing_operator_raises(self):
        with pytest.raises(ParseError):
            parse_formula("(e.enr e.enr)")

    def test_trailing_tokens_raise(self):
        with pytest.raises(ParseError):
            parse_formula("(e.enr = 1) extra")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_formula("(e.enr = )")
        assert excinfo.value.line == 1

    def test_lifting_numbers_constants_in_source_order(self):
        tokens = tokenize("('Highman' <> e.ename) AND NOT (e.estatus = professor) OR (e.enr < $k)")
        parser = Parser(tokens, lift=True)
        formula = parser.parse_formula_only()
        assert [tokens[i].value for i in parser.lifted] == ["Highman", "professor"]
        assert formula == Or(
            And(
                Comparison(Param("0"), "<>", FieldRef("e", "ename")),
                Not(Comparison(FieldRef("e", "estatus"), "=", Param("1"))),
            ),
            Comparison(FieldRef("e", "enr"), "<", Param("k")),
        )


class TestSelectionParsing:
    def test_minimal_selection(self):
        selection = parse_selection("[<e.ename> OF EACH e IN employees: true]")
        assert selection.free_variables == ("e",)
        assert selection.columns[0].field == "ename"

    def test_multiple_columns_and_bindings(self):
        selection = parse_selection(
            "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: "
            "(e.enr = c.cnr)]"
        )
        assert len(selection.columns) == 2
        assert selection.free_variables == ("e", "c")

    def test_column_alias(self):
        selection = parse_selection(
            "[<e.ename AS name> OF EACH e IN employees: true]"
        )
        assert selection.columns[0].alias == "name"

    def test_extended_range_binding(self):
        selection = parse_selection(
            "[<e.ename> OF EACH e IN [EACH e IN employees: (e.estatus = professor)]: true]"
        )
        assert selection.bindings[0].range.is_extended()

    def test_running_query_matches_builder_form(self):
        assert parse_selection(EXAMPLE_21_TEXT) == example_21()

    def test_missing_bracket_raises(self):
        with pytest.raises(ParseError):
            parse_selection("[<e.ename> OF EACH e IN employees: true")

    def test_missing_of_raises(self):
        with pytest.raises(ParseError):
            parse_selection("[<e.ename> EACH e IN employees: true]")
