"""Recursive-descent parser for MiniC.

The grammar is a kernel-flavoured subset of C89/C99 plus Deputy-style
annotations.  Annotations are *contextual keywords*: they are ordinary
identifiers to the lexer and are only given meaning in declarator positions,
which is what lets annotated code be compiled by a stock toolchain once the
annotations are erased (the paper's "erasure semantics").

Supported constructs (everything the mini-kernel corpus needs):

* declarations with storage classes, qualifiers, typedefs;
* struct/union/enum definitions, anonymous and tagged, nested;
* pointer, array and function declarators, including function pointers
  (``int (*op)(struct file *, char *count(n), int n)``);
* initializers: scalar, brace lists, ``.field =`` designators;
* the full statement set: ``if/else while do-for switch goto label`` and
  ``asm("...")``;
* the full expression grammar with C precedence, casts, ``sizeof``,
  compound assignment and the comma operator;
* annotations after ``*`` (``int * count(n) buf``), after a declarator
  (``void schedule(void) blocking;``) and ``trusted { ... }`` blocks.

Binary operators are parsed by precedence climbing (Pratt, *Top down
operator precedence*, 1973) over one table, :data:`_BINARY_PRECEDENCE`,
which maps each of the 18 operators to its level, ``||`` loosest (0) and
``*``/``/``/``%`` tightest (9).  One call parses an operand and then every
operator that binds at least as tightly as its caller allows, so an operand
costs one call rather than one per level.  All binary operators are
left-associative, and a :class:`~repro.minic.ast_nodes.Binary` node is
located at the start of its leftmost operand.
"""

from __future__ import annotations

from typing import Optional

from ..annotations.attrs import (
    DEPUTY_KINDS,
    KEYWORD_TO_KIND,
    NULLARY_KINDS,
    Annotation,
    AnnotationKind,
    AnnotationSet,
)
from . import ast_nodes as ast
from .ctypes import (
    CArray,
    CEnum,
    CFloat,
    CFunc,
    CInt,
    CNamed,
    CParam,
    CPointer,
    CStruct,
    CType,
    CVoid,
    CField,
)
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .source import preprocess
from .symtab import TypeRegistry
from .tokens import Token, TokenKind

_TYPE_SPECIFIER_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "_Bool", "struct", "union", "enum",
})
_STORAGE_KEYWORDS = frozenset({"static", "extern", "typedef", "register", "auto"})
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile", "inline"})
#: Keywords that begin a declaration, and those that begin a type name.
_DECLARATION_KEYWORDS = _TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS | _QUALIFIER_KEYWORDS
_TYPE_NAME_KEYWORDS = _TYPE_SPECIFIER_KEYWORDS | _QUALIFIER_KEYWORDS

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

#: Binary operator -> precedence level; a higher level binds tighter.
_BINARY_PRECEDENCE: dict[str, int] = {
    "||": 0,
    "&&": 1,
    "|": 2,
    "^": 3,
    "&": 4,
    "==": 5, "!=": 5,
    "<": 6, ">": 6, "<=": 6, ">=": 6,
    "<<": 7, ">>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}

#: The token kinds the parser tests most, read once: reading an enum member
#: through its class costs about ten times a module global.
_PUNCT = TokenKind.PUNCT
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT


class Parser:
    """Parse one MiniC source file into a :class:`TranslationUnit`."""

    def __init__(self, tokens: list[Token], filename: str = "<unknown>",
                 registry: TypeRegistry | None = None) -> None:
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.registry = registry if registry is not None else TypeRegistry()

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # ``pos`` never passes the EOF token that ends the list.
        if not offset:
            return self.tokens[self.pos]
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return token

    def _check_punct(self, *texts: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind is _PUNCT and token.text in texts

    def _check_keyword(self, *names: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind is _KEYWORD and token.text in names

    def _accept_punct(self, *texts: str) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind is _PUNCT and token.text in texts:
            return self._advance()
        return None

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._check_keyword(*names):
            return self._advance()
        return None

    def _expect_punct(self, text: str) -> Token:
        if not self._check_punct(text):
            raise ParseError(f"expected {text!r}, found {self._peek().text!r}",
                             self._peek().location)
        return self._advance()

    def _expect_keyword(self, name: str) -> Token:
        if not self._check_keyword(name):
            raise ParseError(f"expected {name!r}, found {self._peek().text!r}",
                             self._peek().location)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not _IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.location)
        return self._advance()

    def _loc(self) -> SourceLocation:
        return self.tokens[self.pos].location

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    # -- entry point -------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(filename=self.filename, location=self._loc())
        while not self._at_eof():
            if self._accept_punct(";"):
                continue
            unit.decls.extend(self._parse_external_declaration())
        return unit

    # -- declarations ------------------------------------------------------

    def _starts_declaration(self) -> bool:
        token = self._peek()
        if token.kind is _KEYWORD:
            return token.text in _DECLARATION_KEYWORDS
        if token.kind is _IDENT:
            return self.registry.is_typedef(token.text)
        return False

    def _parse_external_declaration(self) -> list[ast.Node]:
        loc = self._loc()
        storage, base_type = self._parse_declaration_specifiers()
        # A bare "struct foo { ... };" definition.
        if self._accept_punct(";"):
            return [ast.StructDecl(ctype=base_type, location=loc)]

        results: list[ast.Node] = []
        first = True
        while True:
            name, ctype, annotations = self._parse_declarator(base_type)
            if first and isinstance(ctype, CFunc) and self._check_punct("{"):
                ctype.annotations.extend(annotations)
                body = self._parse_block()
                func = ast.FuncDef(name=name, type=ctype, body=body,
                                   storage=storage, annotations=ctype.annotations,
                                   location=loc)
                return [func]
            first = False
            init = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            if storage != "typedef" and not isinstance(ctype, CFunc):
                ctype = _fold_declarator_annotations(ctype, annotations)
            decl = ast.Declaration(name=name, type=ctype, storage=storage,
                                   init=init, annotations=annotations, location=loc)
            if storage == "typedef":
                self.registry.define_typedef(name, CNamed(name=name, underlying=ctype))
            if isinstance(ctype, CFunc):
                ctype.annotations.extend(annotations)
            results.append(decl)
            if self._accept_punct(","):
                continue
            self._expect_punct(";")
            break
        return results

    def _parse_declaration_specifiers(self) -> tuple[str, CType]:
        """Parse storage class, qualifiers and the type specifier."""
        storage = ""
        saw_unsigned = False
        saw_signed = False
        int_words: list[str] = []
        base_type: Optional[CType] = None
        loc = self._loc()

        while True:
            token = self.tokens[self.pos]
            kind, text = token.kind, token.text
            if kind is _KEYWORD:
                if text in _STORAGE_KEYWORDS:
                    self._advance()
                    if text in ("typedef", "static", "extern"):
                        storage = text
                    continue
                if text in _QUALIFIER_KEYWORDS:
                    self._advance()
                    continue
                if text == "unsigned":
                    self._advance()
                    saw_unsigned = True
                    continue
                if text == "signed":
                    self._advance()
                    saw_signed = True
                    continue
                if text == "void":
                    self._advance()
                    base_type = CVoid()
                    continue
                if text == "float":
                    self._advance()
                    base_type = CFloat(double=False)
                    continue
                if text == "double":
                    self._advance()
                    base_type = CFloat(double=True)
                    continue
                if text == "_Bool":
                    self._advance()
                    base_type = CInt("bool", signed=False)
                    continue
                if text in ("char", "short", "int", "long"):
                    self._advance()
                    int_words.append(text)
                    continue
                if text in ("struct", "union"):
                    base_type = self._parse_struct_or_union()
                    continue
                if text == "enum":
                    base_type = self._parse_enum()
                    continue
            elif (kind is _IDENT and self.registry.is_typedef(text)
                    and base_type is None and not int_words
                    and not saw_signed and not saw_unsigned):
                self._advance()
                base_type = self.registry.typedef(text)
                continue
            break

        if base_type is None:
            if int_words or saw_signed or saw_unsigned:
                base_type = _integer_type(int_words, saw_unsigned)
            else:
                raise ParseError(f"expected type specifier, found {self._peek().text!r}", loc)
        elif int_words:
            raise ParseError("conflicting type specifiers", loc)
        return storage, base_type

    def _parse_struct_or_union(self) -> CStruct:
        keyword = self._advance()
        is_union = keyword.text == "union"
        if self._peek().kind is _IDENT:
            tag = self._advance().text
        else:
            tag = self.registry.anonymous_tag("union" if is_union else "struct")
        struct = self.registry.struct_tag(tag, is_union)
        if self._accept_punct("{"):
            fields: list[CField] = []
            while not self._check_punct("}"):
                fields.extend(self._parse_struct_fields())
            self._expect_punct("}")
            struct.define(fields)
        return struct

    def _parse_struct_fields(self) -> list[CField]:
        _storage, base_type = self._parse_declaration_specifiers()
        fields: list[CField] = []
        if self._accept_punct(";"):
            # Anonymous nested struct/union: inline its members.
            inner = base_type.strip()
            if isinstance(inner, CStruct) and inner.complete:
                return [CField(name=f.name, type=f.type, annotations=f.annotations)
                        for f in inner.fields]
            return fields
        while True:
            name, ctype, annotations = self._parse_declarator(base_type)
            fields.append(CField(
                name=name, type=_fold_declarator_annotations(ctype, annotations),
                annotations=annotations))
            if self._accept_punct(","):
                continue
            self._expect_punct(";")
            break
        return fields

    def _parse_enum(self) -> CEnum:
        self._expect_keyword("enum")
        if self._peek().kind is _IDENT:
            tag = self._advance().text
        else:
            tag = self.registry.anonymous_tag("enum")
        enum = self.registry.enum_tag(tag)
        if self._accept_punct("{"):
            value = 0
            while not self._check_punct("}"):
                name = self._expect_ident().text
                if self._accept_punct("="):
                    value = self._parse_constant_expression()
                enum.members[name] = value
                self.registry.define_enum_constant(name, value)
                value += 1
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            enum.complete = True
        return enum

    # -- declarators ---------------------------------------------------------

    def _parse_declarator(self, base_type: CType,
                          abstract: bool = False) -> tuple[str, CType, AnnotationSet]:
        """Parse a (possibly abstract) declarator applied to ``base_type``.

        Returns ``(name, full_type, trailing_annotations)``; the name is empty
        for abstract declarators.
        """
        ctype = self._parse_pointer_suffix(base_type)
        name, ctype = self._parse_direct_declarator(ctype, abstract)
        trailing = self._parse_annotations(trailing=True)
        return name, ctype, trailing

    def _parse_pointer_suffix(self, base_type: CType) -> CType:
        ctype = base_type
        while self._check_punct("*"):
            self._advance()
            annotations = AnnotationSet()
            while self._accept_keyword("const", "volatile"):
                pass
            annotations.extend(self._parse_annotations())
            ctype = CPointer(target=ctype, annotations=annotations)
        return ctype

    def _parse_direct_declarator(self, ctype: CType,
                                 abstract: bool) -> tuple[str, CType]:
        name = ""
        inner_tokens_start = None
        if self._check_punct("("):
            # Could be a parenthesised declarator "(*name)" or, for abstract
            # declarators, a parameter list.  Disambiguate by the next token.
            nxt = self._peek(1)
            is_paren_declarator = nxt.is_punct("*") or (
                nxt.kind is _IDENT and not self.registry.is_typedef(nxt.text)
                and nxt.text not in KEYWORD_TO_KIND)
            if is_paren_declarator:
                self._advance()
                inner_tokens_start = self.pos
                depth = 1
                while depth:
                    token = self._advance()
                    if token.is_punct("("):
                        depth += 1
                    elif token.is_punct(")"):
                        depth -= 1
                    elif token.kind is TokenKind.EOF:
                        raise ParseError("unterminated declarator", token.location)
        elif self._peek().kind is _IDENT and not abstract:
            name = self._advance().text

        # Array and function suffixes apply to the declarator seen so far.
        while True:
            if self._check_punct("["):
                self._advance()
                length: Optional[int] = None
                if not self._check_punct("]"):
                    length = self._parse_constant_expression()
                self._expect_punct("]")
                ctype = _append_suffix(ctype, ("array", length))
            elif self._check_punct("("):
                params, varargs = self._parse_parameter_list()
                ctype = _append_suffix(ctype, ("func", (params, varargs)))
            else:
                break

        ctype = _resolve_suffixes(ctype)

        if inner_tokens_start is not None:
            # Re-parse the inner declarator with the suffixed type as its base.
            saved_pos = self.pos
            self.pos = inner_tokens_start
            name, ctype, _ = self._parse_declarator(ctype)
            # Skip to the ")" that closed the inner declarator.
            self._expect_punct(")")
            self.pos = saved_pos
        return name, ctype

    def _parse_parameter_list(self) -> tuple[list[CParam], bool]:
        self._expect_punct("(")
        params: list[CParam] = []
        varargs = False
        if self._accept_punct(")"):
            return params, varargs
        if self._check_keyword("void") and self._peek(1).is_punct(")"):
            self._advance()
            self._advance()
            return params, varargs
        while True:
            if self._accept_punct("..."):
                varargs = True
                break
            _storage, base = self._parse_declaration_specifiers()
            name, ctype, annotations = self._parse_declarator(base, abstract=False)
            ctype = _fold_declarator_annotations(_decay_parameter_type(ctype),
                                                 annotations)
            params.append(CParam(name=name, type=ctype, annotations=annotations))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return params, varargs

    def _parse_type_name(self) -> CType:
        _storage, base = self._parse_declaration_specifiers()
        _name, ctype, _annotations = self._parse_declarator(base, abstract=True)
        return ctype

    def _parse_annotations(self, trailing: bool = False) -> AnnotationSet:
        """Parse a run of annotations.

        In pointer position (``trailing=False``) a nullary annotation keyword
        is only treated as an annotation when followed by more declarator
        material, because ``int * nullterm;`` legitimately declares a variable
        named ``nullterm``.  In trailing position (after the declarator name)
        there is no such ambiguity, so keywords are always annotations.
        """
        annotations = AnnotationSet()
        while True:
            token = self._peek()
            if token.kind is not _IDENT or token.text not in KEYWORD_TO_KIND:
                return annotations
            kind = KEYWORD_TO_KIND[token.text]
            follower = self._peek(1)
            if kind in NULLARY_KINDS:
                # Only treat as an annotation when another declarator element
                # follows; otherwise it is an ordinary identifier.
                if not trailing and follower.is_punct(";", ",", ")", "=", "[", "("):
                    return annotations
                self._advance()
                annotations.add(Annotation(kind=kind))
                continue
            if not follower.is_punct("("):
                return annotations
            self._advance()
            self._expect_punct("(")
            args: list[ast.Expr] = []
            if not self._check_punct(")"):
                while True:
                    args.append(self._parse_assignment_expression())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
            annotations.add(Annotation(kind=kind, args=tuple(args)))

    # -- initializers ---------------------------------------------------------

    def _parse_initializer(self) -> ast.Initializer:
        loc = self._loc()
        if self._accept_punct("{"):
            elements: list[ast.Initializer] = []
            field_names: list[Optional[str]] = []
            while not self._check_punct("}"):
                designator: Optional[str] = None
                if self._check_punct(".") and self._peek(1).kind is _IDENT:
                    self._advance()
                    designator = self._advance().text
                    self._expect_punct("=")
                elements.append(self._parse_initializer())
                field_names.append(designator)
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return ast.Initializer(elements=elements, field_names=field_names, location=loc)
        return ast.Initializer(expr=self._parse_assignment_expression(), location=loc)

    # -- statements -----------------------------------------------------------

    def _parse_block(self, trusted: bool = False) -> ast.Block:
        loc = self._loc()
        self._expect_punct("{")
        stmts: list[ast.Stmt] = []
        while not self._check_punct("}"):
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Block(stmts=stmts, trusted=trusted, location=loc)

    def _parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        loc = token.location
        kind, text = token.kind, token.text

        if kind is _PUNCT:
            if text == "{":
                return self._parse_block()
            if text == ";":
                self._advance()
                return ast.EmptyStmt(location=loc)
        elif kind is _KEYWORD:
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "do":
                return self._parse_do_while()
            if text == "for":
                return self._parse_for()
            if text == "switch":
                return self._parse_switch()
            if text == "break":
                self._advance()
                self._expect_punct(";")
                return ast.Break(location=loc)
            if text == "continue":
                self._advance()
                self._expect_punct(";")
                return ast.Continue(location=loc)
            if text == "return":
                self._advance()
                value = None
                if not self._check_punct(";"):
                    value = self._parse_expression()
                self._expect_punct(";")
                return ast.Return(value=value, location=loc)
            if text == "goto":
                self._advance()
                label = self._expect_ident().text
                self._expect_punct(";")
                return ast.Goto(label=label, location=loc)
            if text == "asm":
                self._advance()
                self._expect_punct("(")
                text_token = self._advance()
                asm_text = str(text_token.value or "")
                while not self._check_punct(")"):
                    self._advance()
                self._expect_punct(")")
                self._expect_punct(";")
                return ast.Asm(text=asm_text, location=loc)
        elif kind is _IDENT:
            follower = self._peek(1)
            if text == "trusted" and follower.is_punct("{"):
                self._advance()
                return self._parse_block(trusted=True)
            if follower.is_punct(":"):
                self._advance()
                self._advance()
                stmt = None
                if not self._check_punct("}"):
                    stmt = self._parse_statement()
                return ast.Label(name=text, stmt=stmt, location=loc)
        if self._starts_declaration():
            decls = self._parse_local_declaration()
            if len(decls) == 1:
                return decls[0]
            return ast.Block(stmts=list(decls), location=loc)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr=expr, location=loc)

    def _parse_local_declaration(self) -> list[ast.DeclStmt]:
        loc = self._loc()
        storage, base_type = self._parse_declaration_specifiers()
        decls: list[ast.DeclStmt] = []
        if self._accept_punct(";"):
            return decls
        while True:
            name, ctype, annotations = self._parse_declarator(base_type)
            init = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            if storage == "typedef":
                self.registry.define_typedef(name, CNamed(name=name, underlying=ctype))
            else:
                ctype = _fold_declarator_annotations(ctype, annotations)
            decl = ast.Declaration(name=name, type=ctype, storage=storage,
                                   init=init, annotations=annotations, location=loc)
            decls.append(ast.DeclStmt(decl=decl, location=loc))
            if self._accept_punct(","):
                continue
            self._expect_punct(";")
            break
        return decls

    def _parse_if(self) -> ast.If:
        loc = self._loc()
        self._expect_keyword("if")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self._parse_statement()
        return ast.If(cond=cond, then=then, otherwise=otherwise, location=loc)

    def _parse_while(self) -> ast.While:
        loc = self._loc()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(cond=cond, body=body, location=loc)

    def _parse_do_while(self) -> ast.DoWhile:
        loc = self._loc()
        self._expect_keyword("do")
        body = self._parse_statement()
        self._expect_keyword("while")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body=body, cond=cond, location=loc)

    def _parse_for(self) -> ast.For:
        loc = self._loc()
        self._expect_keyword("for")
        self._expect_punct("(")
        init: Optional[ast.Node] = None
        if not self._check_punct(";"):
            if self._starts_declaration():
                decls = self._parse_local_declaration()
                init = decls[0].decl if len(decls) == 1 else ast.Block(
                    stmts=list(decls), location=loc)
            else:
                init = self._parse_expression()
                self._expect_punct(";")
        else:
            self._advance()
        cond = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body, location=loc)

    def _parse_switch(self) -> ast.Switch:
        loc = self._loc()
        self._expect_keyword("switch")
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        while not self._check_punct("}"):
            if self._check_keyword("case"):
                case_loc = self._loc()
                self._advance()
                value = self._parse_conditional_expression()
                self._expect_punct(":")
                current = ast.SwitchCase(value=value, location=case_loc)
                cases.append(current)
                continue
            if self._check_keyword("default"):
                case_loc = self._loc()
                self._advance()
                self._expect_punct(":")
                current = ast.SwitchCase(value=None, location=case_loc)
                cases.append(current)
                continue
            if current is None:
                raise ParseError("statement before first case label", self._loc())
            current.stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.Switch(cond=cond, cases=cases, location=loc)

    # -- expressions ------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        loc = self._loc()
        expr = self._parse_assignment_expression()
        if not self._check_punct(","):
            return expr
        exprs = [expr]
        while self._accept_punct(","):
            exprs.append(self._parse_assignment_expression())
        return ast.Comma(exprs=exprs, location=loc)

    def _parse_assignment_expression(self) -> ast.Expr:
        loc = self._loc()
        left = self._parse_conditional_expression()
        token = self._peek()
        if token.kind is _PUNCT and token.text in _ASSIGN_OPS:
            self._advance()
            right = self._parse_assignment_expression()
            return ast.Assign(op=token.text, target=left, value=right, location=loc)
        return left

    def _parse_conditional_expression(self) -> ast.Expr:
        loc = self._loc()
        cond = self._parse_binary_expression(0)
        if self._accept_punct("?"):
            then = self._parse_expression()
            self._expect_punct(":")
            otherwise = self._parse_conditional_expression()
            return ast.Conditional(cond=cond, then=then, otherwise=otherwise, location=loc)
        return cond

    def _parse_binary_expression(self, min_level: int) -> ast.Expr:
        """An operand followed by every operator of at least ``min_level``.

        Each operator's right operand takes only tighter operators, which
        makes every level left-associative.  "&" and "*" in binary position
        are always binary here; as prefixes they are unary.
        """
        tokens = self.tokens
        loc = tokens[self.pos].location
        left = self._parse_cast_expression()
        while True:
            token = tokens[self.pos]
            if token.kind is not _PUNCT:
                return left
            level = _BINARY_PRECEDENCE.get(token.text)
            if level is None or level < min_level:
                return left
            self._advance()
            right = self._parse_binary_expression(level + 1)
            left = ast.Binary(op=token.text, left=left, right=right, location=loc)

    def _looks_like_type_name(self) -> bool:
        """After a '(' decide whether a type name (cast/sizeof) follows."""
        token = self._peek()
        if token.kind is _KEYWORD:
            return token.text in _TYPE_NAME_KEYWORDS
        if token.kind is _IDENT:
            return self.registry.is_typedef(token.text)
        return False

    def _parse_cast_expression(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind is _PUNCT and token.text == "(":
            loc = token.location
            saved = self.pos
            self._advance()
            if self._looks_like_type_name():
                _storage, base = self._parse_declaration_specifiers()
                _name, to_type, trailing = self._parse_declarator(base, abstract=True)
                # "(struct foo * trusted) e" marks a Deputy trusted cast; the
                # keyword lands either in the pointer annotations or in the
                # trailing declarator annotations depending on spacing.
                trusted = trailing.has(AnnotationKind.TRUSTED)
                stripped = to_type.strip()
                if isinstance(stripped, CPointer) and stripped.annotations.has(
                        AnnotationKind.TRUSTED):
                    trusted = True
                if self._peek().is_ident("trusted"):
                    self._advance()
                    trusted = True
                self._expect_punct(")")
                operand = self._parse_cast_expression()
                return ast.Cast(to_type=to_type, operand=operand, trusted=trusted,
                                location=loc)
            self.pos = saved
        return self._parse_unary_expression()

    def _parse_unary_expression(self) -> ast.Expr:
        token = self.tokens[self.pos]
        loc = token.location
        kind, text = token.kind, token.text
        if kind is _PUNCT:
            if text in ("++", "--"):
                self._advance()
                operand = self._parse_unary_expression()
                return ast.Unary(op=text, operand=operand, location=loc)
            if text == "+":
                self._advance()
                return self._parse_cast_expression()
            if text in ("-", "~", "!", "&", "*"):
                self._advance()
                operand = self._parse_cast_expression()
                return ast.Unary(op=text, operand=operand, location=loc)
        elif kind is _KEYWORD and text == "sizeof":
            self._advance()
            if self._check_punct("(") and self._looks_like_type_name_at(1):
                self._advance()
                of_type = self._parse_type_name()
                self._expect_punct(")")
                return ast.SizeofType(of_type=of_type, location=loc)
            operand = self._parse_unary_expression()
            return ast.SizeofExpr(operand=operand, location=loc)
        return self._parse_postfix_expression()

    def _looks_like_type_name_at(self, offset: int) -> bool:
        token = self._peek(offset)
        if token.kind is _KEYWORD:
            return token.text in _TYPE_NAME_KEYWORDS
        if token.kind is _IDENT:
            return self.registry.is_typedef(token.text)
        return False

    def _parse_postfix_expression(self) -> ast.Expr:
        expr = self._parse_primary_expression()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not _PUNCT:
                return expr
            loc, text = token.location, token.text
            if text == "[":
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(base=expr, index=index, location=loc)
            elif text == "(":
                self._advance()
                args: list[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expression())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = ast.Call(func=expr, args=args, location=loc)
            elif text == "." or text == "->":
                self._advance()
                name = self._expect_ident().text
                expr = ast.Member(base=expr, name=name, arrow=text == "->", location=loc)
            elif text in ("++", "--"):
                self._advance()
                expr = ast.Postfix(op=text, operand=expr, location=loc)
            else:
                return expr

    def _parse_primary_expression(self) -> ast.Expr:
        token = self.tokens[self.pos]
        loc, kind = token.location, token.kind
        if kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(value=int(token.value), location=loc)  # type: ignore[arg-type]
        if kind is TokenKind.CHAR_LIT:
            self._advance()
            return ast.CharLit(value=int(token.value), location=loc)  # type: ignore[arg-type]
        if kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StrLit(value=str(token.value), location=loc)
        if kind is _IDENT:
            self._advance()
            if self.registry.is_enum_constant(token.text):
                return ast.IntLit(value=self.registry.enum_constant(token.text),
                                  location=loc)
            return ast.Ident(name=token.text, location=loc)
        if self._accept_punct("("):
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} in expression", loc)

    # -- constant expressions ----------------------------------------------------

    def _parse_constant_expression(self) -> int:
        expr = self._parse_conditional_expression()
        return evaluate_constant(expr, self.registry)


# ---------------------------------------------------------------------------
# Declarator suffix plumbing
# ---------------------------------------------------------------------------
#
# Array/function suffixes bind tighter than pointers but are written after
# the name; we collect them in order and then fold them onto the base type.

_SUFFIX_ATTR = "_minic_suffixes"


def _append_suffix(ctype: CType, suffix: tuple) -> CType:
    suffixes = list(getattr(ctype, _SUFFIX_ATTR, []))
    suffixes.append(suffix)
    wrapper = _SuffixedType(ctype, suffixes)
    return wrapper


class _SuffixedType(CType):
    """Temporary wrapper holding declarator suffixes before resolution."""

    def __init__(self, base: CType, suffixes: list[tuple]) -> None:
        self.base = base
        self.suffixes = suffixes

    @property
    def size(self) -> int:  # pragma: no cover - never used before resolution
        raise NotImplementedError


def _resolve_suffixes(ctype: CType) -> CType:
    if not isinstance(ctype, _SuffixedType):
        return ctype
    result = ctype.base
    for kind, payload in reversed(ctype.suffixes):
        if kind == "array":
            result = CArray(element=result, length=payload)
        else:
            params, varargs = payload
            result = CFunc(return_type=result, params=params, varargs=varargs)
    return result


def _fold_declarator_annotations(ctype: CType,
                                 annotations: AnnotationSet) -> CType:
    """Fold a declarator's trailing Deputy annotations into its pointer type.

    ``char *buf count(n)`` declares what ``char * count(n) buf`` does, so a
    parameter's, local's, global's or struct field's trailing annotations
    are copied onto its pointer type here, once, before any analysis reads
    the type.  The result is a new type: the declared one may be shared
    with other declarators (a typedef's pointer, say), so it is never
    modified.
    """
    if isinstance(ctype, CNamed):
        underlying = _fold_declarator_annotations(ctype.underlying, annotations)
        if underlying is ctype.underlying:
            return ctype
        return CNamed(name=ctype.name, underlying=underlying)
    if not isinstance(ctype, CPointer):
        return ctype
    folded = ctype.annotations.copy()
    for annotation in annotations:
        if annotation.kind in DEPUTY_KINDS and not folded.has(annotation.kind):
            folded.add(annotation)
    if len(folded) == len(ctype.annotations):
        return ctype
    return CPointer(target=ctype.target, annotations=folded)


def _decay_parameter_type(ctype: CType) -> CType:
    """Array and function parameters decay to pointers, as in C."""
    stripped = ctype.strip()
    if isinstance(stripped, CArray):
        return CPointer(target=stripped.element)
    if isinstance(stripped, CFunc):
        return CPointer(target=stripped)
    return ctype


def _integer_type(words: list[str], unsigned: bool) -> CInt:
    counted = sorted(words)
    if words.count("long") >= 2:
        kind = "longlong"
    elif "char" in counted:
        kind = "char"
    elif "short" in counted:
        kind = "short"
    elif "long" in counted:
        kind = "long"
    else:
        kind = "int"
    return CInt(kind, signed=not unsigned)


# ---------------------------------------------------------------------------
# Constant expression evaluation (array sizes, enum values, case labels)
# ---------------------------------------------------------------------------

def evaluate_constant(expr: ast.Expr, registry: TypeRegistry | None = None) -> int:
    """Evaluate a compile-time constant integer expression."""
    if isinstance(expr, (ast.IntLit, ast.CharLit)):
        return expr.value
    if isinstance(expr, ast.Ident):
        if registry is not None and registry.is_enum_constant(expr.name):
            return registry.enum_constant(expr.name)
        raise ParseError(f"{expr.name!r} is not a compile-time constant", expr.location)
    if isinstance(expr, ast.SizeofType):
        return expr.of_type.size
    if isinstance(expr, ast.Unary):
        value = evaluate_constant(expr.operand, registry)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(not value)
        raise ParseError(f"operator {expr.op!r} not allowed in constant expression",
                         expr.location)
    if isinstance(expr, ast.Binary):
        left = evaluate_constant(expr.left, registry)
        right = evaluate_constant(expr.right, registry)
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right if right else 0,
            "%": lambda: left % right if right else 0,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "<": lambda: int(left < right),
            ">": lambda: int(left > right),
            "<=": lambda: int(left <= right),
            ">=": lambda: int(left >= right),
            "&&": lambda: int(bool(left) and bool(right)),
            "||": lambda: int(bool(left) or bool(right)),
        }
        if expr.op in ops:
            return ops[expr.op]()
    if isinstance(expr, ast.Conditional):
        cond = evaluate_constant(expr.cond, registry)
        branch = expr.then if cond else expr.otherwise
        return evaluate_constant(branch, registry)
    raise ParseError("expression is not a compile-time constant", expr.location)


# ---------------------------------------------------------------------------
# Public convenience entry points
# ---------------------------------------------------------------------------

def parse_source(text: str, filename: str = "<unknown>",
                 registry: TypeRegistry | None = None,
                 defines: dict[str, str] | None = None) -> ast.TranslationUnit:
    """Preprocess, tokenize and parse ``text`` into a translation unit."""
    processed = preprocess(text, filename, defines)
    tokens = tokenize(processed, filename)
    parser = Parser(tokens, filename, registry)
    return parser.parse_translation_unit()


def parse_expression(text: str,
                     registry: TypeRegistry | None = None) -> ast.Expr:
    """Parse a single expression (used by tests and annotation tooling)."""
    tokens = tokenize(text, "<expr>")
    parser = Parser(tokens, "<expr>", registry)
    expr = parser._parse_expression()
    if not parser._at_eof():
        raise ParseError("trailing tokens after expression", parser._loc())
    return expr
