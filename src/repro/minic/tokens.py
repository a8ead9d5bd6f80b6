"""Token definitions for the MiniC lexer.

A :class:`Token` is a :class:`typing.NamedTuple` of ``(kind, text, value,
location)``: building one is a tuple allocation, and the parser reads its
fields through C-level tuple accessors.  Being a plain tuple, a token
compares equal to the tuple of its fields, ``Token(k, t, v, loc) == (k, t,
v, loc)``, and not only to another ``Token``.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(Enum):
    """Lexical category of a token."""

    IDENT = auto()
    KEYWORD = auto()
    INT_LIT = auto()
    CHAR_LIT = auto()
    STRING_LIT = auto()
    PUNCT = auto()
    EOF = auto()


#: Reserved words of the MiniC language proper.
KEYWORDS: frozenset[str] = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "_Bool",
    "struct", "union", "enum", "typedef",
    "static", "extern", "const", "volatile", "inline", "register", "auto",
    "if", "else", "while", "for", "do", "switch", "case", "default",
    "break", "continue", "return", "goto", "sizeof", "asm",
})

#: Deputy / CCount / BlockStop annotation keywords.  These are *contextual*
#: keywords: the lexer emits them as identifiers and the parser recognizes
#: them in declarator positions, which is exactly how the real Deputy extends
#: C without breaking existing programs (erasure semantics).
ANNOTATION_KEYWORDS: frozenset[str] = frozenset({
    "count", "bound", "nullterm", "nonnull", "opt", "sentinel",
    "trusted", "when",
    "blocking", "noblock", "blocking_if_wait",
    "acquires", "releases", "locks_irq", "stacksize", "errcodes",
})

#: Multi-character punctuators, longest first so the lexer can match greedily.
PUNCTUATORS: tuple[str, ...] = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":",
)


class Token(NamedTuple):
    """A single lexical token."""

    kind: TokenKind
    text: str
    value: int | str | None
    location: SourceLocation

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in texts

    def is_ident(self, *names: str) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return not names or self.text in names

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
