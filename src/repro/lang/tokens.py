"""Token kinds and the token record produced by the MiniC lexer."""

from __future__ import annotations

from repro.errors import SourceLocation

# Token kinds --------------------------------------------------------------

# Literals and identifiers.
INT = "INT"
STRING = "STRING"
NAME = "NAME"

# Keywords.
KEYWORDS = frozenset(
    {
        "fn",
        "var",
        "if",
        "else",
        "while",
        "for",
        "break",
        "continue",
        "return",
        "true",
        "false",
        "nil",
        "and",
        "or",
        "not",
    }
)

# Punctuation / operators, ordered longest-first so the lexer can do a
# greedy match.
PUNCTUATION = (
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
)

EOF = "EOF"


class Token:
    """A single lexeme with its kind, text, decoded value and position."""

    __slots__ = ("kind", "text", "value", "location")

    def __init__(self, kind: str, text: str, value, location: SourceLocation) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.location = location

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, @{self.location})"
