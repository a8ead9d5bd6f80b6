"""Unit tests for the MiniC parser.

Binary operators are parsed by precedence climbing.  The level-per-
precedence parse it replaced is kept below verbatim, as
:class:`ReferenceParser`, and both must build trees with the same ``repr``
(locations included) for every unit of two corpora and for generated
expressions, or raise the same error at the same place.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotations import AnnotationKind
from repro.kernel.corpus import ALL_FILES
from repro.kernel.synth import generate_corpus
from repro.minic import ast, parse_expression, parse_source
from repro.minic.ctypes import CArray, CFunc, CInt, CPointer, CStruct
from repro.minic.errors import MiniCError, ParseError
from repro.minic.lexer import tokenize
from repro.minic.parser import _BINARY_PRECEDENCE, Parser, evaluate_constant
from repro.minic.source import Preprocessor
from repro.minic.symtab import TypeRegistry
from repro.minic.tokens import TokenKind


def parse_one(src):
    unit = parse_source(src)
    assert len(unit.decls) >= 1
    return unit.decls[0]


class TestDeclarations:
    def test_global_int(self):
        decl = parse_one("int counter;")
        assert isinstance(decl, ast.Declaration)
        assert isinstance(decl.type, CInt)

    def test_pointer_declaration(self):
        decl = parse_one("char *name;")
        assert isinstance(decl.type, CPointer)

    def test_array_declaration(self):
        decl = parse_one("int table[16];")
        assert isinstance(decl.type, CArray)
        assert decl.type.length == 16

    def test_array_size_constant_expression(self):
        decl = parse_one("int table[4 * 8];")
        assert decl.type.length == 32

    def test_static_storage(self):
        decl = parse_one("static int x;")
        assert decl.storage == "static"

    def test_typedef_registers_name(self):
        unit = parse_source("typedef unsigned int u32; u32 value;")
        value_decl = unit.decls[1]
        assert value_decl.type.strip().is_integer()

    def test_multiple_declarators(self):
        unit = parse_source("int a, b, c;")
        assert [d.name for d in unit.decls] == ["a", "b", "c"]

    def test_initializer_list_with_designators(self):
        decl = parse_one("struct point { int x; int y; };")
        unit = parse_source(
            "struct point { int x; int y; };"
            "struct point origin = { .x = 1, .y = 2 };")
        init = unit.decls[1].init
        assert init.is_list
        assert init.field_names == ["x", "y"]


class TestStructsAndEnums:
    def test_struct_definition(self):
        decl = parse_one("struct pair { int first; int second; };")
        struct = decl.ctype
        assert isinstance(struct, CStruct)
        assert struct.complete
        assert [f.name for f in struct.fields] == ["first", "second"]

    def test_self_referential_struct(self):
        decl = parse_one("struct node { int v; struct node *next; };")
        next_field = decl.ctype.field_named("next")
        assert isinstance(next_field.type, CPointer)

    def test_union(self):
        decl = parse_one("union value { int i; char c; };")
        assert decl.ctype.is_union

    def test_enum_values(self):
        unit = parse_source("enum state { IDLE, RUNNING = 5, DONE };")
        enum = unit.decls[0].ctype
        assert enum.members == {"IDLE": 0, "RUNNING": 5, "DONE": 6}

    def test_enum_constant_folded_in_expressions(self):
        unit = parse_source("enum state { GO = 3 }; int x = GO + 1;")
        init = unit.decls[1].init
        assert evaluate_constant(init.expr) == 4


class TestFunctions:
    def test_function_definition(self):
        func = parse_one("int add(int a, int b) { return a + b; }")
        assert isinstance(func, ast.FuncDef)
        ftype = func.type
        assert isinstance(ftype, CFunc)
        assert [p.name for p in ftype.params] == ["a", "b"]

    def test_void_parameter_list(self):
        func = parse_one("void init(void) { }")
        assert func.type.params == []

    def test_varargs_prototype(self):
        decl = parse_one("int printk(char *fmt, ...);")
        assert decl.type.strip().varargs

    def test_function_pointer_declarator(self):
        decl = parse_one("int (*handler)(int irq, void *dev);")
        pointer = decl.type
        assert isinstance(pointer, CPointer)
        assert isinstance(pointer.target, CFunc)

    def test_function_pointer_struct_field(self):
        decl = parse_one(
            "struct ops { int (*open)(int fd); int (*close)(int fd); };")
        field = decl.ctype.field_named("open")
        assert isinstance(field.type.strip(), CPointer)

    def test_array_parameter_decays_to_pointer(self):
        func = parse_one("int sum(int values[], int n) { return n; }")
        assert isinstance(func.type.params[0].type, CPointer)


class TestAnnotations:
    def test_count_annotation_on_pointer(self):
        func = parse_one("int sum(int * count(n) buf, int n) { return 0; }")
        pointer = func.type.params[0].type
        annotation = pointer.annotations.get(AnnotationKind.COUNT)
        assert annotation is not None
        assert isinstance(annotation.args[0], ast.Ident)

    def test_nullterm_annotation(self):
        func = parse_one("int slen(char * nullterm s) { return 0; }")
        assert func.type.params[0].type.annotations.has(AnnotationKind.NULLTERM)

    def test_trailing_blocking_annotation(self):
        decl = parse_one("void schedule(void) blocking;")
        assert decl.annotations.has(AnnotationKind.BLOCKING)

    def test_blocking_if_wait(self):
        decl = parse_one("void *kmalloc(unsigned int size, int flags) blocking_if_wait;")
        assert decl.annotations.has(AnnotationKind.BLOCKING_IF_WAIT)

    def test_trusted_block_statement(self):
        func = parse_one("int f(void) { trusted { return 1; } }")
        assert isinstance(func.body.stmts[0], ast.Block)
        assert func.body.stmts[0].trusted

    def test_trusted_cast(self):
        func = parse_one(
            "struct list_head { struct list_head *next; };"
            "struct task { struct list_head run; int pid; };")
        unit = parse_source(
            "struct list_head { struct list_head *next; };"
            "struct task { struct list_head run; int pid; };"
            "struct task *conv(struct list_head *e) {"
            "    return (struct task * trusted)e;"
            "}")
        ret = unit.decls[-1].body.stmts[0]
        assert isinstance(ret.value, ast.Cast)
        assert ret.value.trusted

    def test_plain_variable_named_like_annotation_keyword(self):
        # "int * nullterm;" declares a variable called nullterm.
        decl = parse_one("int * nullterm;")
        assert decl.name == "nullterm"


class TestStatements:
    def test_if_else(self):
        func = parse_one("int f(int x) { if (x) { return 1; } else { return 2; } }")
        assert isinstance(func.body.stmts[0], ast.If)

    def test_for_loop(self):
        func = parse_one("int f(void) { int i; for (i = 0; i < 4; i++) { } return i; }")
        assert any(isinstance(s, ast.For) for s in func.body.stmts)

    def test_while_and_do_while(self):
        func = parse_one("void f(int n) { while (n) { n--; } do { n++; } while (n < 3); }")
        kinds = [type(s).__name__ for s in func.body.stmts]
        assert "While" in kinds and "DoWhile" in kinds

    def test_switch_cases(self):
        func = parse_one(
            "int f(int x) { switch (x) { case 1: return 1; default: return 0; } }")
        switch = func.body.stmts[0]
        assert len(switch.cases) == 2
        assert switch.cases[1].value is None

    def test_goto_and_label(self):
        func = parse_one("int f(void) { goto out; out: return 3; }")
        assert isinstance(func.body.stmts[0], ast.Goto)
        assert isinstance(func.body.stmts[1], ast.Label)

    def test_asm_statement(self):
        func = parse_one('void f(void) { asm("cli"); }')
        assert isinstance(func.body.stmts[0], ast.Asm)


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert evaluate_constant(expr) == 7

    def test_parentheses(self):
        assert evaluate_constant(parse_expression("(1 + 2) * 3")) == 9

    def test_ternary(self):
        assert evaluate_constant(parse_expression("1 ? 10 : 20")) == 10

    def test_bitwise_and_shift(self):
        assert evaluate_constant(parse_expression("(1 << 4) | 3")) == 19

    def test_unary_operators(self):
        assert evaluate_constant(parse_expression("-(3) + ~0 + !5")) == -4

    def test_member_and_index_chain(self):
        expr = parse_expression("table[i]->field.next")
        assert isinstance(expr, ast.Member)
        assert not expr.arrow

    def test_call_with_arguments(self):
        expr = parse_expression("kmalloc(sizeof(x), 1)")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 2

    def test_assignment_expression(self):
        expr = parse_expression("a = b = 3")
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_compound_assignment(self):
        expr = parse_expression("total += 4")
        assert expr.op == "+="

    def test_comma_operator(self):
        expr = parse_expression("(a, b, c)")
        assert isinstance(expr, ast.Comma)
        assert len(expr.exprs) == 3


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_source("int x")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse_source("int f(void) { return 0;")

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse_expression("1 + * 2 +")

    def test_non_constant_array_size(self):
        with pytest.raises(ParseError):
            parse_source("int f(int n) { int a[n * m]; return 0; }")


# ---------------------------------------------------------------------------
# The reference: one call per precedence level, as the parser parsed before
# ---------------------------------------------------------------------------


class ReferenceParser(Parser):
    """The parser with the level-per-precedence binary parse it replaced."""

    _BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _parse_binary_expression(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast_expression()
        loc = self._loc()
        left = self._parse_binary_expression(level + 1)
        ops = self._BINARY_LEVELS[level]
        while True:
            token = self._peek()
            if token.kind is TokenKind.PUNCT and token.text in ops:
                # "&" at the innermost levels can also begin a unary
                # address-of, but in binary position it is always binary here.
                self._advance()
                right = self._parse_binary_expression(level + 1)
                left = ast.Binary(op=token.text, left=left, right=right, location=loc)
            else:
                return left


def _parse_units(files, parser_class):
    """Every unit of ``files`` as ``parse_corpus`` parses them, by ``parser_class``."""
    preprocessor = Preprocessor()
    registry = TypeRegistry()
    units = []
    for corpus_file in files:
        text = preprocessor.process(corpus_file.source, corpus_file.filename)
        tokens = tokenize(text, corpus_file.filename)
        units.append(parser_class(tokens, corpus_file.filename, registry)
                     .parse_translation_unit())
    return units


#: Declarations the generated expressions may refer to.
_PRELUDE = """
typedef unsigned int u32;
struct node { int v; struct node *next; };
enum color { RED, GREEN = 4 };
"""


def _expression_outcome(parser_class, text):
    """The ``repr`` of ``text`` parsed as an expression, or the error raised."""
    registry = TypeRegistry()
    parse_source(_PRELUDE, "prelude.c", registry)
    parser = parser_class(tokenize(text, "expr.c"), "expr.c", registry)
    try:
        expr = parser._parse_expression()
        if not parser._at_eof():
            raise ParseError("trailing tokens after expression", parser._loc())
    except MiniCError as error:
        return type(error).__name__, error.message, error.location
    return repr(expr)


class TestReferenceDifferential:
    def test_the_table_holds_every_level_of_the_reference(self):
        levels = ReferenceParser._BINARY_LEVELS
        assert _BINARY_PRECEDENCE == {
            op: level for level, ops in enumerate(levels) for op in ops}
        assert len(_BINARY_PRECEDENCE) == 18

    @pytest.mark.parametrize("files", [ALL_FILES, generate_corpus(2, seed=11)],
                             ids=["seed", "synth-2"])
    def test_every_unit(self, files):
        units = _parse_units(files, Parser)
        assert len(units) > 10
        assert [repr(unit) for unit in units] == [
            repr(unit) for unit in _parse_units(files, ReferenceParser)]

    @pytest.mark.parametrize("text", [
        "a - b - c", "a = b = c", "a ? b : c ? d : e", "a || b && c | d ^ e & f",
        "a == b != c < d", "x << 1 + 2 * 3 % 4 / 5 >> 6", "a + (b, c) * d",
        "-a * ~b + !c - *p & &q", "(u32) a * (struct node *) p",
        "sizeof a + sizeof (u32) * sizeof(struct node)", "p->next->v++ + --a",
        "a +\n  b\n    * c", "f(a, b)[c] . v", "a + ", "(a + b", "a ? b", "a b",
    ])
    def test_edge_cases(self, text):
        assert _expression_outcome(Parser, text) == _expression_outcome(
            ReferenceParser, text)

    def test_every_operator_pair(self):
        # Precedence and associativity of each pair, either way round.
        for first in _BINARY_PRECEDENCE:
            for second in _BINARY_PRECEDENCE:
                text = f"a {first} b\n {second} c {first} d"
                assert _expression_outcome(Parser, text) == _expression_outcome(
                    ReferenceParser, text), text


#: Whitespace between tokens, never empty so no two tokens merge.
_GAPS = st.sampled_from([" ", " ", " ", "\n", "\n    ", "\t"])
_LEAVES = st.sampled_from(
    ["a", "b", "count", "p", "RED", "GREEN", "0", "1", "42", "0x1f", "'c'", '"s"'])
_UNARY = st.sampled_from(["-", "+", "!", "~", "*", "&", "++", "--"])
_CASTS = st.sampled_from(
    ["(int)", "(unsigned long)", "(struct node *)", "(u32)", "(char * trusted)"])
_ASSIGN = st.sampled_from(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                           "<<=", ">>="])


def _join(parts):
    return "".join(parts)


def _compound(children):
    binary = st.tuples(children, _GAPS, st.sampled_from(sorted(_BINARY_PRECEDENCE)),
                       _GAPS, children)
    return st.one_of(
        binary.map(_join),
        binary.map(_join),  # binary operators three times as often
        binary.map(_join),
        st.tuples(_UNARY, _GAPS, children).map(_join),
        st.tuples(children, _GAPS, st.sampled_from(["++", "--"])).map(_join),
        st.tuples(_CASTS, _GAPS, children).map(_join),
        st.tuples(st.just("sizeof"), _GAPS, children).map(_join),
        st.tuples(st.just("sizeof"), _GAPS, st.sampled_from(
            ["(int)", "(u32)", "(struct node)", "(char *)"])).map(_join),
        st.tuples(children, _GAPS, st.just("?"), _GAPS, children, _GAPS,
                  st.just(":"), _GAPS, children).map(_join),
        st.tuples(children, _GAPS, st.just(","), _GAPS, children).map(_join),
        st.tuples(children, _GAPS, _ASSIGN, _GAPS, children).map(_join),
        st.tuples(st.just("("), _GAPS, children, _GAPS, st.just(")")).map(_join),
        st.tuples(children, st.just("["), children, st.just("]")).map(_join),
        st.tuples(st.just("f("), children, st.just(")")).map(_join),
        st.tuples(children, st.sampled_from([".v", "->next"])).map(_join),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=16)


class TestReferenceDifferentialProperty:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_EXPRESSIONS)
    def test_generated_expressions(self, text):
        assert _expression_outcome(Parser, text) == _expression_outcome(
            ReferenceParser, text)
