"""Abstract syntax tree node definitions for MiniC.

The AST is deliberately close to C's surface syntax: the instrumenters
(Deputy, CCount, BlockStop) are source-to-source transformations, so the tree
must round-trip through the pretty printer and re-parse cleanly ("erasure
semantics" — an annotated program stripped of annotations is still a valid
program with identical behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..annotations.attrs import AnnotationSet
from .ctypes import CType
from .errors import SourceLocation


@dataclass
class Node:
    """Base class for all AST nodes."""

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr(Node):
    """Base class for expressions.

    ``ctype`` is filled in by the type checker (:mod:`repro.deputy.typesystem`)
    and is ``None`` for freshly parsed trees.
    """

    ctype: Optional[CType] = field(default=None, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class CharLit(Expr):
    value: int = 0


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    """Prefix unary operators: ``- ~ ! & * ++ --``."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Postfix(Expr):
    """Postfix ``++`` and ``--``."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    """Binary operators (arithmetic, comparison, logical, bitwise)."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Expr):
    """Assignment, plain (``=``) or compound (``+=`` etc.)."""

    op: str = "="
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Conditional(Expr):
    """The ternary ``cond ? then : otherwise`` operator."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """A function call (direct or through a function pointer)."""

    func: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array subscripting ``base[index]``."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    """Member access ``obj.field`` or ``ptr->field``."""

    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    """A cast ``(type) expr``; ``trusted`` marks Deputy trusted casts."""

    to_type: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]
    trusted: bool = False


@dataclass
class SizeofType(Expr):
    of_type: CType = None  # type: ignore[assignment]


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Comma(Expr):
    exprs: list[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class Block(Stmt):
    """A compound statement; ``trusted`` marks a Deputy TRUSTED block."""

    stmts: list[Stmt] = field(default_factory=list)
    trusted: bool = False


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Union["Declaration", Expr]] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class SwitchCase(Node):
    """One ``case value:`` or ``default:`` arm inside a switch."""

    value: Optional[Expr] = None  # None means default
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    cases: list[SwitchCase] = field(default_factory=list)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Goto(Stmt):
    label: str = ""


@dataclass
class Label(Stmt):
    name: str = ""
    stmt: Optional[Stmt] = None


@dataclass
class Asm(Stmt):
    """Inline assembly; treated as opaque/trusted by all analyses."""

    text: str = ""


@dataclass
class DeclStmt(Stmt):
    """A local declaration appearing in statement position."""

    decl: "Declaration" = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Declarations and top-level constructs
# ---------------------------------------------------------------------------

@dataclass
class Initializer(Node):
    """Either a scalar initializer expression or a brace-enclosed list."""

    expr: Optional[Expr] = None
    elements: Optional[list["Initializer"]] = None
    field_names: Optional[list[Optional[str]]] = None  # designators, if any

    @property
    def is_list(self) -> bool:
        return self.elements is not None


@dataclass
class Declaration(Node):
    """A single declared name (variable, parameter or prototype)."""

    name: str = ""
    type: CType = None  # type: ignore[assignment]
    storage: str = ""               # "", "static", "extern", "typedef"
    init: Optional[Initializer] = None
    annotations: AnnotationSet = field(default_factory=AnnotationSet)

    @property
    def is_typedef(self) -> bool:
        return self.storage == "typedef"


@dataclass
class FuncDef(Node):
    """A function definition."""

    name: str = ""
    type: CType = None  # type: ignore[assignment]  # a CFunc
    body: Block = None  # type: ignore[assignment]
    storage: str = ""
    annotations: AnnotationSet = field(default_factory=AnnotationSet)


@dataclass
class StructDecl(Node):
    """A struct/union/enum definition appearing at top level."""

    ctype: CType = None  # type: ignore[assignment]


@dataclass
class TranslationUnit(Node):
    """One parsed source file."""

    filename: str = "<unknown>"
    decls: list[Node] = field(default_factory=list)

    def functions(self) -> list[FuncDef]:
        return [d for d in self.decls if isinstance(d, FuncDef)]

    def globals(self) -> list[Declaration]:
        return [d for d in self.decls
                if isinstance(d, Declaration) and not d.is_typedef
                and not d.type.strip().is_function()]

    def function_named(self, name: str) -> Optional[FuncDef]:
        for func in self.functions():
            if func.name == name:
                return func
        return None


# ---------------------------------------------------------------------------
# Helpers used throughout the toolchain
# ---------------------------------------------------------------------------

def make_call(name: str, args: list[Expr],
              location: SourceLocation | None = None) -> Call:
    """Construct a call to a named function (used by the instrumenters)."""
    loc = location or SourceLocation()
    return Call(func=Ident(name=name, location=loc), args=args, location=loc)


def int_lit(value: int, location: SourceLocation | None = None) -> IntLit:
    return IntLit(value=value, location=location or SourceLocation())
