"""Unit tests for the MiniC lexer.

``tokenize`` scans with one compiled pattern.  It is checked token for token
(kind, text, value, filename, line and column) against the per-character
lexer it replaced, kept below verbatim as :class:`ReferenceLexer`, over every
preprocessed unit of two corpora and over generated fragments.  Where the
reference raises ``LexError`` the pattern lexer must raise the same message
at the same location; where the reference crashed on a malformed literal
(a bare ``ValueError`` from ``int``), it must raise ``LexError``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.corpus import ALL_FILES
from repro.kernel.synth import generate_corpus
from repro.minic.errors import LexError, SourceLocation
from repro.minic.lexer import tokenize
from repro.minic.source import Preprocessor
from repro.minic.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

# ---------------------------------------------------------------------------
# The reference lexer: the per-character implementation the pattern replaced.
# ---------------------------------------------------------------------------

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


class ReferenceLexer:
    """Convert MiniC source text into a token stream."""

    def __init__(self, text: str, filename: str = "<unknown>") -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> list[Token]:
        """Return the full token list, including the trailing EOF token."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internals --------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        consumed = self.text[self.pos:self.pos + count]
        for ch in consumed:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return consumed

    def _skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n\f\v":
            self._advance()

    def _next_token(self) -> Token:
        self._skip_whitespace()
        loc = self._location()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", None, loc)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(loc)
        if ch.isdigit():
            return self._lex_number(loc)
        if ch == "'":
            return self._lex_char(loc)
        if ch == '"':
            return self._lex_string(loc)
        for punct in PUNCTUATORS:
            if self.text.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, None, loc)
        raise LexError(f"unexpected character {ch!r}", loc)

    def _lex_identifier(self, loc: SourceLocation) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.text[start:self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, text, loc)

    def _lex_number(self, loc: SourceLocation) -> Token:
        start = self.pos
        text = self.text
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self.pos < len(text) and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            digits = text[start:self.pos]
            value = int(digits, 16)
        elif self._peek() == "0" and self._peek(1).isdigit():
            self._advance()
            while self.pos < len(text) and self._peek().isdigit():
                self._advance()
            digits = text[start:self.pos]
            value = int(digits, 8)
        else:
            while self.pos < len(text) and self._peek().isdigit():
                self._advance()
            digits = text[start:self.pos]
            value = int(digits, 10)
        # Integer suffixes (u, l, ul, ull, ...) are accepted and ignored:
        # MiniC models a single 32-bit int plus 64-bit long long.  The
        # explicit emptiness guard matters: at end of input _peek() returns
        # "" and `"" in "uUlL"` is True, which would loop forever.
        while self._peek() != "" and self._peek() in "uUlL":
            self._advance()
        return Token(TokenKind.INT_LIT, text[start:self.pos], value, loc)

    def _lex_escape(self, loc: SourceLocation) -> str:
        self._advance()  # backslash
        ch = self._peek()
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() != "" and self._peek() in "0123456789abcdefABCDEF":
                digits += self._advance()
            if not digits:
                raise LexError("invalid hex escape", loc)
            return chr(int(digits, 16))
        if ch in _SIMPLE_ESCAPES:
            self._advance()
            return _SIMPLE_ESCAPES[ch]
        raise LexError(f"unknown escape sequence \\{ch}", loc)

    def _lex_char(self, loc: SourceLocation) -> Token:
        self._advance()  # opening quote
        if self._peek() == "\\":
            value = self._lex_escape(loc)
        else:
            value = self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", loc)
        self._advance()
        return Token(TokenKind.CHAR_LIT, value, ord(value), loc)

    def _lex_string(self, loc: SourceLocation) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text) or self._peek() == "\n":
                raise LexError("unterminated string literal", loc)
            if self._peek() == '"':
                self._advance()
                break
            if self._peek() == "\\":
                chars.append(self._lex_escape(loc))
            else:
                chars.append(self._advance())
        value = "".join(chars)
        return Token(TokenKind.STRING_LIT, value, value, loc)


def reference_tokenize(text, filename="<unknown>"):
    return ReferenceLexer(text, filename).tokenize()


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        token = tokenize("kmalloc")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "kmalloc"

    def test_keyword(self):
        token = tokenize("while")[0]
        assert token.kind is TokenKind.KEYWORD

    def test_annotation_keywords_are_identifiers(self):
        # Deputy annotations are contextual keywords, not reserved words.
        for word in ("count", "nullterm", "trusted", "blocking"):
            assert tokenize(word)[0].kind is TokenKind.IDENT

    def test_decimal_literal(self):
        assert tokenize("42")[0].value == 42

    def test_hex_literal(self):
        assert tokenize("0xff")[0].value == 255

    def test_octal_literal(self):
        assert tokenize("0755")[0].value == 0o755

    def test_integer_suffixes_ignored(self):
        assert tokenize("42UL")[0].value == 42
        assert tokenize("7ull")[0].value == 7

    def test_char_literal(self):
        assert tokenize("'a'")[0].value == ord("a")

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == ord("\n")
        assert tokenize(r"'\0'")[0].value == 0

    def test_string_literal(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING_LIT
        assert token.value == "hello"

    def test_string_escapes(self):
        assert tokenize(r'"a\tb\n"')[0].value == "a\tb\n"

    def test_hex_escape_in_string(self):
        assert tokenize(r'"\x41"')[0].value == "A"


class TestPunctuators:
    def test_multichar_punctuators_are_greedy(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("p->next") == ["p", "->", "next"]
        assert texts("i++") == ["i", "++"]

    def test_ellipsis(self):
        assert "..." in texts("int printf(char *fmt, ...)")

    def test_arithmetic_expression(self):
        assert texts("a+b*c") == ["a", "+", "b", "*", "c"]

    def test_comparison_operators(self):
        assert texts("a<=b>=c==d!=e") == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]


class TestLocations:
    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.location.line for t in tokens[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].location.column == 1
        assert tokens[1].location.column == 4


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestPropertyBased:
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_decimal_integers_round_trip(self, value):
        assert tokenize(str(value))[0].value == value

    @given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,20}", fullmatch=True))
    def test_identifiers_lex_to_single_token(self, name):
        tokens = tokenize(name)
        assert len(tokens) == 2
        assert tokens[0].text == name

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                          blacklist_characters='"\\'),
                   max_size=40))
    def test_string_literals_round_trip(self, body):
        token = tokenize('"' + body + '"')[0]
        assert token.kind is TokenKind.STRING_LIT
        assert token.value == body


class TestMalformedLiterals:
    """A malformed literal is a ``LexError`` at the literal, not a crash."""

    @pytest.mark.parametrize("source, column", [
        ("int x = 0x;", 9),
        ("int y = 09;", 9),
        ("int z = ²;", 9),
    ])
    def test_malformed_integer_literal(self, source, column):
        with pytest.raises(LexError) as caught:
            tokenize(source, "bad.c")
        assert caught.value.location == SourceLocation("bad.c", 1, column)
        assert "invalid integer literal" in caught.value.message

    def test_out_of_range_hex_escape(self):
        with pytest.raises(LexError) as caught:
            tokenize("a = '\\x110000';", "bad.c")
        assert caught.value.location == SourceLocation("bad.c", 1, 5)
        assert caught.value.message == "invalid hex escape"


# ---------------------------------------------------------------------------
# Differential: the pattern lexer against the reference
# ---------------------------------------------------------------------------


def _outcome(lex, text, filename="unit.c"):
    """Every token's fields, or the error a lexer raised."""
    try:
        return [(token.kind, token.text, token.value, token.location)
                for token in lex(text, filename)]
    except LexError as error:
        return ("LexError", error.message, error.location)


def assert_same_as_reference(text, filename="unit.c"):
    try:
        expected = _outcome(reference_tokenize, text, filename)
    except (ValueError, OverflowError):
        # A malformed literal the reference crashed on.
        with pytest.raises(LexError):
            tokenize(text, filename)
        return
    assert _outcome(tokenize, text, filename) == expected


def _preprocessed_units(files):
    preprocessor = Preprocessor()
    return [(corpus_file.filename,
             preprocessor.process(corpus_file.source, corpus_file.filename))
            for corpus_file in files]


class TestReferenceDifferential:
    @pytest.mark.parametrize("files", [ALL_FILES, generate_corpus(2, seed=11)],
                             ids=["seed", "synth-2"])
    def test_every_preprocessed_unit(self, files):
        units = _preprocessed_units(files)
        assert len(units) > 10
        for filename, text in units:
            assert_same_as_reference(text, filename)

    @pytest.mark.parametrize("text", [
        "", "0", "a\n", "'\n'", "'''", "''", "'", '"', "'\\", '"\\', "'\\x'",
        '"a\nb"', "x\r\n\fy\v", "été = 1;", "_²", "café٣",
        "٣ + ٠٣", " ", "@", "$x", "`", "#", "\\", "a.b...c",
        "0x1Fu 0755L 42ull 0XaBcD", "'\\x41' \"\\x4142\\q\"", "1.5",
    ])
    def test_edge_cases(self, text):
        assert_same_as_reference(text)


_SUFFIXES = st.sampled_from(["", "u", "U", "l", "L", "ul", "LU", "ull", "LL"])
_ESCAPES = st.one_of(
    st.sampled_from(["\\" + ch for ch in "ntr0\\'\"abfv"]),
    st.text("0123456789abcdefABCDEF", min_size=1, max_size=4).map(
        lambda digits: "\\x" + digits),
    st.sampled_from(["\\q", "\\x", "\\\n", "\\"]))
_PLAIN_CHARS = st.one_of(
    st.characters(min_codepoint=32, max_codepoint=0x2FF,
                  blacklist_characters="'\"\\"),
    st.sampled_from("\n\t\r\f\v'\""))
_LETTERS = st.characters(whitelist_categories=("Lu", "Ll", "Lo"),
                         max_codepoint=0x30FF)
_FRAGMENTS = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.sampled_from(sorted(KEYWORDS)),
    st.text(_LETTERS, min_size=1, max_size=4),
    st.tuples(st.sampled_from(["0x", "0X"]),
              st.text("0123456789abcdefABCDEF", min_size=1, max_size=6),
              _SUFFIXES).map("".join),
    st.tuples(st.just("0"), st.text("01234567", min_size=1, max_size=5),
              _SUFFIXES).map("".join),
    st.tuples(st.integers(0, 2**40).map(str), _SUFFIXES).map("".join),
    st.tuples(st.just("'"), st.one_of(_PLAIN_CHARS, _ESCAPES),
              st.just("'")).map("".join),
    st.tuples(st.just('"'), st.lists(st.one_of(_PLAIN_CHARS, _ESCAPES),
                                     max_size=6).map("".join),
              st.just('"')).map("".join),
    st.sampled_from(PUNCTUATORS),
    st.text(" \t\r\n\f\v", min_size=1, max_size=3),
    st.sampled_from(["@", "$", "'", '"', " ", "0x", "09", "²"]),
)


class TestReferenceDifferentialProperty:
    @settings(deadline=None, max_examples=500)
    @given(st.lists(st.tuples(_FRAGMENTS, st.sampled_from(["", "", " ", "\n"])),
                    max_size=24))
    def test_mixed_fragments(self, pieces):
        # Adjacent fragments may merge into one token, or into an error.
        assert_same_as_reference("".join(fragment + gap for fragment, gap in pieces))
