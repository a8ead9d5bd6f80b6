"""The MiniC lexer: one compiled pattern scans the common tokens.

The lexer works on already-preprocessed text (see :mod:`repro.minic.source`)
and produces a flat list of :class:`Token` objects terminated by an EOF
token.  A single compiled alternation matches whitespace runs, identifiers
and keywords, integer literals and punctuators (longest first) at each
position; char and string literals, whose escapes need decoding, are scanned
by small helper functions.  Lines and columns are derived from the offset of
the last newline seen, never updated per character.

Identifiers follow ``str.isalpha``/``str.isalnum`` (``\\w`` is exactly
``isalnum`` or ``_``); a non-ASCII letter that starts one is recognized
outside the pattern.  Every malformed literal — ``0x`` with no digits, an
octal literal with an ``8`` or ``9``, a digit ``int()`` cannot read, an
out-of-range ``\\x`` escape — is a :class:`LexError` at the literal's
location, like every other lexical error.
"""

from __future__ import annotations

import re
import sys

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}

#: Group numbers of :data:`_TOKEN`'s alternatives (``match.lastindex``).
_SPACE, _WORD, _HEX, _NUMBER, _PUNCT = 1, 2, 3, 5, 6

#: One alternative per token class, tried in this order at each position.
#: Punctuators keep :data:`PUNCTUATORS`' longest-first order, so the first
#: that matches is the greedy one.
_TOKEN = re.compile(
    r"([ \t\r\n\f\v]+)"
    r"|([A-Za-z_]\w*)"
    r"|(0[xX]([0-9a-fA-F]*)[uUlL]*)"
    r"|(\d+)[uUlL]*"
    r"|(" + "|".join(re.escape(punct) for punct in PUNCTUATORS) + ")")

_WORD_TAIL = re.compile(r"\w*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_STRING_RUN = re.compile(r'[^"\\\n]*')


def tokenize(text: str, filename: str = "<unknown>") -> list[Token]:
    """Tokenize ``text`` (already preprocessed) into a token list."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    keywords = KEYWORDS
    line, line_start = 1, 0  # the current line and the offset it starts at
    pos, end = 0, len(text)
    while pos < end:
        found = match(text, pos)
        group = found.lastindex if found is not None else None
        if group == _SPACE or group is None:
            if group is None:
                token, next_pos = _scan_other(
                    text, pos, SourceLocation(filename, line, pos - line_start + 1))
                append(token)
            else:
                next_pos = found.end()
            # Whitespace, and a char literal holding a raw newline, may end
            # on a later line.
            newlines = text.count("\n", pos, next_pos)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, next_pos) + 1
            pos = next_pos
            continue
        loc = SourceLocation(filename, line, pos - line_start + 1)
        if group == _WORD:
            word = found.group()
            kind = TokenKind.KEYWORD if word in keywords else TokenKind.IDENT
            append(Token(kind, word, word, loc))
        elif group == _PUNCT:
            append(Token(TokenKind.PUNCT, found.group(), None, loc))
        elif group == _NUMBER:
            literal = found.group()
            append(Token(TokenKind.INT_LIT, literal,
                         _integer_value(found.group(_NUMBER), literal, loc), loc))
        else:
            literal, digits = found.group(_HEX, _HEX + 1)
            if not digits:
                raise LexError(f"invalid integer literal {literal!r}", loc)
            append(Token(TokenKind.INT_LIT, literal, int(digits, 16), loc))
        pos = found.end()
    append(Token(TokenKind.EOF, "", None,
                 SourceLocation(filename, line, end - line_start + 1)))
    return tokens


def _integer_value(digits: str, literal: str, loc: SourceLocation) -> int:
    """The value of a decimal or (leading ``0``) octal digit run.

    The run may hold any Unicode decimal digit, which ``int`` reads; the
    suffix letters (``u``, ``l``, ``ul``, ``ull`` …) are ignored: MiniC
    models a single 32-bit int plus 64-bit long long.
    """
    try:
        if len(digits) > 1 and digits[0] == "0":
            return int(digits, 8)
        return int(digits)
    except ValueError:
        raise LexError(f"invalid integer literal {literal!r}", loc) from None


def _scan_other(text: str, pos: int, loc: SourceLocation) -> tuple[Token, int]:
    """The token at ``pos`` that the pattern does not match, and its end."""
    ch = text[pos]
    if ch == "'":
        value, end = _scan_char(text, pos, loc)
        return Token(TokenKind.CHAR_LIT, value, ord(value), loc), end
    if ch == '"':
        value, end = _scan_string(text, pos, loc)
        return Token(TokenKind.STRING_LIT, value, value, loc), end
    if ch.isalpha():
        end = _WORD_TAIL.match(text, pos + 1).end()
        word = text[pos:end]
        return Token(TokenKind.IDENT, word, word, loc), end
    if ch.isdigit():
        # A digit ``int`` cannot read, such as a superscript.
        raise LexError(f"invalid integer literal {ch!r}", loc)
    raise LexError(f"unexpected character {ch!r}", loc)


def _scan_escape(text: str, pos: int, loc: SourceLocation) -> tuple[str, int]:
    """The character an escape stands for, and the escape's end; the
    backslash is at ``pos``."""
    ch = text[pos + 1:pos + 2]
    if ch == "x":
        digits = _HEX_DIGITS.match(text, pos + 2).group()
        if not digits or int(digits, 16) > sys.maxunicode:
            raise LexError("invalid hex escape", loc)
        return chr(int(digits, 16)), pos + 2 + len(digits)
    value = _SIMPLE_ESCAPES.get(ch)
    if value is None:
        raise LexError(f"unknown escape sequence \\{ch}", loc)
    return value, pos + 2


def _scan_char(text: str, pos: int, loc: SourceLocation) -> tuple[str, int]:
    """A char literal's value and end; its opening quote is at ``pos``."""
    pos += 1
    if text.startswith("\\", pos):
        value, pos = _scan_escape(text, pos, loc)
    else:
        value, pos = text[pos:pos + 1], pos + 1
    if not text.startswith("'", pos):
        raise LexError("unterminated character literal", loc)
    return value, pos + 1


def _scan_string(text: str, pos: int, loc: SourceLocation) -> tuple[str, int]:
    """A string literal's value and end; its opening quote is at ``pos``."""
    chunks: list[str] = []
    pos += 1
    while True:
        end = _STRING_RUN.match(text, pos).end()
        chunks.append(text[pos:end])
        if text.startswith('"', end):
            return "".join(chunks), end + 1
        if not text.startswith("\\", end):  # a newline or the end of input
            raise LexError("unterminated string literal", loc)
        value, pos = _scan_escape(text, end, loc)
        chunks.append(value)
