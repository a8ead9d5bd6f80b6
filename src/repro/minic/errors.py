"""Error types for the MiniC frontend.

Every frontend error carries a :class:`SourceLocation` so that tools built on
top of the frontend (Deputy, CCount, BlockStop) can report file/line positions
exactly like a C compiler would.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a MiniC source file.

    A :class:`typing.NamedTuple`: the lexer builds one per token, and a
    tuple is built without a Python-level ``__init__``.  Being a plain
    tuple, a location compares equal to the tuple of its fields,
    ``SourceLocation(f, l, c) == (f, l, c)``, and not only to another
    ``SourceLocation``, as :class:`repro.minic.tokens.Token` does.
    """

    filename: str = "<unknown>"
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class MiniCError(Exception):
    """Base class for all MiniC frontend errors."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        self.message = message
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class LexError(MiniCError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(MiniCError):
    """Raised when the parser encounters a syntax error."""


class TypeError_(MiniCError):
    """Raised when type construction or layout fails.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`TypeError`.
    """


class SemanticError(MiniCError):
    """Raised for semantic errors found while building symbol tables."""
