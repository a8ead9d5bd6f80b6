"""Unit and property-based tests for types, preprocessor, pretty printer.

``strip_comments`` matches literals and comments with one compiled pattern.
The per-character loop it replaced is kept below verbatim as
:func:`reference_strip_comments`; both must return the same text, or raise
the same ``LexError``, on generated fragments.  They differ in one place on
purpose: the reference does not count a backslash-escaped newline inside a
literal, so it reports an unterminated block comment after one too early.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations import erased_source
from repro.kernel.corpus import ALL_FILES
from repro.kernel.synth import generate_corpus
from repro.minic import parse_source, render_unit
from repro.minic.ctypes import (
    CArray,
    CField,
    CInt,
    CStruct,
    CHAR,
    INT,
    UINT,
    common_arithmetic_type,
    pointer_to,
    types_compatible,
)
from repro.minic.errors import LexError, SourceLocation, TypeError_
from repro.minic.source import Preprocessor, preprocess, strip_comments


class TestTypeLayout:
    def test_integer_sizes_match_i386(self):
        assert CInt("char").size == 1
        assert CInt("short").size == 2
        assert CInt("int").size == 4
        assert CInt("long").size == 4
        assert CInt("longlong").size == 8

    def test_pointer_size(self):
        assert pointer_to(INT).size == 4

    def test_struct_layout_with_padding(self):
        struct = CStruct(tag="mixed")
        struct.define([CField("c", CHAR), CField("i", INT), CField("s", CInt("short"))])
        assert struct.field_named("c").offset == 0
        assert struct.field_named("i").offset == 4
        assert struct.field_named("s").offset == 8
        assert struct.size == 12

    def test_union_layout(self):
        union = CStruct(tag="u", is_union=True)
        union.define([CField("i", INT), CField("c", CHAR)])
        assert union.field_named("i").offset == 0
        assert union.field_named("c").offset == 0
        assert union.size == 4

    def test_array_size(self):
        assert CArray(element=INT, length=10).size == 40

    def test_incomplete_struct_rejects_sizeof(self):
        struct = CStruct(tag="forward")
        with pytest.raises(TypeError_):
            _ = struct.size

    def test_pointer_field_offsets(self):
        struct = CStruct(tag="holder")
        inner = CStruct(tag="inner")
        inner.define([CField("p", pointer_to(INT)), CField("x", INT)])
        struct.define([CField("a", INT), CField("q", pointer_to(CHAR)),
                       CField("nested", inner)])
        offsets = list(struct.pointer_field_offsets())
        assert offsets == [4, 8]

    def test_integer_wrapping(self):
        assert CInt("char", signed=True).wrap(130) == -126
        assert CInt("char", signed=False).wrap(258) == 2
        assert CInt("int", signed=False).wrap(-1) == 0xFFFFFFFF

    def test_common_arithmetic_type(self):
        assert common_arithmetic_type(CHAR, INT).size == 4
        assert common_arithmetic_type(UINT, INT).signed is False
        assert common_arithmetic_type(CInt("longlong"), INT).size == 8


class TestTypeCompatibility:
    def test_same_int_sizes_compatible(self):
        assert types_compatible(INT, UINT)

    def test_void_pointer_compatible_with_any_pointer(self):
        from repro.minic.ctypes import void_pointer
        assert types_compatible(void_pointer(), pointer_to(INT))

    def test_struct_pointers_incompatible_across_tags(self):
        a = CStruct(tag="a")
        b = CStruct(tag="b")
        assert not types_compatible(pointer_to(a), pointer_to(b))

    def test_signature_distinguishes_parameter_counts(self):
        from repro.minic.ctypes import CFunc, CParam
        f1 = CFunc(return_type=INT, params=[CParam("a", INT)])
        f2 = CFunc(return_type=INT, params=[CParam("a", INT), CParam("b", INT)])
        assert f1.signature() != f2.signature()


class TestPreprocessor:
    def test_object_macro_expansion(self):
        out = preprocess("#define MAX 16\nint x = MAX;")
        assert "16" in out and "MAX" not in out.replace("MAX", "16")

    def test_macro_expansion_is_word_bounded(self):
        out = preprocess("#define N 4\nint xN = 2; int y = N;")
        assert "xN" in out

    def test_ifdef_inactive_branch_removed(self):
        out = preprocess("#ifdef CONFIG_SMP\nint smp_only;\n#endif\nint always;")
        assert "smp_only" not in out
        assert "always" in out

    def test_ifdef_active_branch_kept(self):
        pre = Preprocessor({"CONFIG_SMP": "1"})
        out = pre.process("#ifdef CONFIG_SMP\nint smp_only;\n#endif")
        assert "smp_only" in out

    def test_ifndef_and_else(self):
        out = preprocess("#ifndef CONFIG_X\nint a;\n#else\nint b;\n#endif")
        assert "int a" in out and "int b" not in out

    def test_include_lines_dropped(self):
        out = preprocess('#include <linux/kernel.h>\nint x;')
        assert "include" not in out

    def test_line_numbers_preserved(self):
        out = preprocess("#define A 1\n\nint x = A;")
        assert out.splitlines()[2] == "int x = 1;"

    def test_comments_stripped(self):
        out = strip_comments("int a; // trailing\n/* block\n comment */ int b;")
        assert "trailing" not in out and "block" not in out
        assert out.count("\n") == 2

    def test_comment_inside_string_preserved(self):
        out = strip_comments('char *s = "not // a comment";')
        assert "not // a comment" in out

    def test_unterminated_comment_after_escaped_newline(self):
        # The string's escaped newline ends line 1; the comment opens on 2.
        with pytest.raises(LexError) as caught:
            strip_comments('char *s = "a\\\nb"; /* open', "esc.c")
        assert caught.value.message == "unterminated block comment"
        assert caught.value.location == SourceLocation("esc.c", 2, 1)


# ---------------------------------------------------------------------------
# The reference comment stripper: the per-character loop the pattern replaced
# ---------------------------------------------------------------------------


def reference_strip_comments(text: str, filename: str = "<unknown>") -> str:
    """Remove ``//`` and ``/* */`` comments, preserving line structure."""
    out: list[str] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == '"' or ch == "'":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                if text[i] == "\n":
                    line += 1
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            closed = False
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    i += 2
                    closed = True
                    break
                if text[i] == "\n":
                    out.append("\n")
                    line += 1
                i += 1
            if not closed:
                raise LexError(
                    "unterminated block comment",
                    SourceLocation(filename, start_line, 1),
                )
            continue
        if ch == "\n":
            line += 1
        out.append(ch)
        i += 1
    return "".join(out)


def _strip_outcome(strip, text):
    try:
        return strip(text, "frag.c")
    except LexError as error:
        return "LexError", error.message, error.location


def assert_strips_like_reference(text):
    got = _strip_outcome(strip_comments, text)
    expected = _strip_outcome(reference_strip_comments, text)
    if isinstance(expected, tuple) and "\\\n" in text:
        # The reference may miscount lines after an escaped newline.
        assert isinstance(got, tuple) and got[:2] == expected[:2]
    else:
        assert got == expected


#: Pieces whose concatenations put comment openers inside literals, escapes
#: (of quotes, of backslashes, of newlines) inside and outside them, and
#: block comments across lines, closed or not.
_STRIP_PIECES = st.sampled_from([
    "//", "/*", "*/", "/", "*", '"', "'", "\\", "\\\n", "\\\"", "\\'",
    "\n", "\n\n", " ", "a", "int x = 1;", "'/'", "'*'", '"//"', '"/*"', "'\\''",
    '"\\""', "/* c */", "/* a\nb */", "// t\n", "#define N 1\n",
])


class TestStripCommentsReference:
    @pytest.mark.parametrize("text", [
        "", "a", "/", "/*", "/**/", "/*/", "//*", "/* a\n b */ c", '"/* x"', "'//'",
        '"a\\"b" // c', "'\\'' /* d */", '"unterminated /* e', "/* open\n",
        'x = "a\\\nb"; /* open', "a // c\n/* d\n", "a/**//**/b",
    ])
    def test_edge_cases(self, text):
        assert_strips_like_reference(text)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.lists(_STRIP_PIECES, max_size=20).map("".join))
    def test_generated_fragments(self, text):
        assert_strips_like_reference(text)

    def test_every_corpus_file(self):
        for corpus_file in ALL_FILES + generate_corpus(2, seed=11):
            assert_strips_like_reference(corpus_file.source)


ROUND_TRIP_SOURCES = [
    "int x = 3;",
    "static char buffer[32];",
    "struct pair { int a; int b; };",
    "int add(int a, int b) { return a + b; }",
    "void loop(int n) { int i; for (i = 0; i < n; i++) { n += i; } }",
    "int fp(int (*op)(int, int), int x) { return op(x, x); }",
    "int annotated(int * count(n) buf, int n) { return buf[0]; }",
    "void blocker(void) blocking;",
    "int sw(int x) { switch (x) { case 1: return 1; default: break; } return 0; }",
    "int g(void) { goto out; out: return 2; }",
]


class TestPrettyPrinterRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_round_trip_preserves_declaration_count(self, source):
        unit = parse_source(source)
        printed = render_unit(unit)
        reparsed = parse_source(printed)
        assert len(reparsed.decls) == len(unit.decls)

    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_round_trip_is_stable(self, source):
        once = render_unit(parse_source(source))
        twice = render_unit(parse_source(once))
        assert once == twice

    def test_erasure_removes_annotations(self):
        source = ("int sum(int * count(n) buf, int n) blocking { "
                  "trusted { return buf[0]; } }")
        unit = parse_source(source)
        erased = erased_source(unit)
        assert "count(" not in erased
        assert "blocking" not in erased
        assert "trusted" not in erased
        # The erased program is still valid MiniC.
        parse_source(erased)


@st.composite
def constant_expressions(draw, depth=0):
    """Random constant integer expressions as (text, value) pairs."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=1000))
        return str(value), value
    left_text, left = draw(constant_expressions(depth=depth + 1))
    right_text, right = draw(constant_expressions(depth=depth + 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    value = {"+": left + right, "-": left - right, "*": left * right}[op]
    return f"({left_text} {op} {right_text})", value


class TestExpressionProperties:
    @settings(max_examples=40, deadline=None)
    @given(constant_expressions())
    def test_constant_folding_matches_python(self, pair):
        from repro.minic.parser import evaluate_constant, parse_expression
        text, expected = pair
        assert evaluate_constant(parse_expression(text)) == expected

    @settings(max_examples=40, deadline=None)
    @given(constant_expressions())
    def test_pretty_printing_preserves_value(self, pair):
        from repro.minic.parser import evaluate_constant, parse_expression
        from repro.minic.pretty import render_expression
        text, expected = pair
        printed = render_expression(parse_expression(text))
        assert evaluate_constant(parse_expression(printed)) == expected
