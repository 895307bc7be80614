"""Textual PASCAL/R-style query language: scanner, parser, unparser."""

from repro.calculus.printer import format_formula, format_selection
from repro.lang.lexer import scan_shape, tokenize
from repro.lang.parser import Parser, parse_formula, parse_selection
from repro.lang.tokens import KEYWORDS, Token, TokenType

__all__ = [
    "KEYWORDS",
    "Parser",
    "Token",
    "TokenType",
    "format_formula",
    "format_selection",
    "parse_formula",
    "parse_selection",
    "scan_shape",
    "tokenize",
]
