"""Deputy's dependent pointer type system.

Deputy extends C pointer types with annotations whose arguments are ordinary
program expressions (``count(len)``, ``bound(lo, hi)``, ``nullterm`` …).  This
module classifies annotated pointer types into the small set of *pointer
kinds* the checker reasons about, and provides the static type environment
used to type expressions inside a function body (parameters, locals, globals,
struct fields and call return types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from ..annotations.attrs import AnnotationKind, AnnotationSet
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import (
    CArray,
    CFunc,
    CInt,
    CPointer,
    CStruct,
    CType,
    INT,
    UINT,
    CHAR,
    VOID,
    pointer_to,
)

#: Return types of abstract-machine builtins that have no corpus prototype.
#: ``__raw_alloc`` in particular must type as ``void *`` so that casting its
#: result to an object pointer generates the cast obligation (and its
#: run-time size check) instead of silently typing as ``int``.
_BUILTIN_RETURN_TYPES: dict[str, CType] = {
    "__raw_alloc": pointer_to(VOID),
}


class PointerKind(Enum):
    """The bounds discipline of a pointer type."""

    SAFE = auto()       # points to exactly one element (or is null)
    COUNT = auto()      # points to at least count(n) elements
    BOUND = auto()      # explicit bound(lo, hi) expressions
    NULLTERM = auto()   # null-terminated sequence
    SENTINEL = auto()   # one-past-the-end pointer; not dereferenceable


@dataclass
class PointerFacts:
    """Everything Deputy knows about one pointer type."""

    kind: PointerKind = PointerKind.SAFE
    count_expr: Optional[ast.Expr] = None
    bound_lo: Optional[ast.Expr] = None
    bound_hi: Optional[ast.Expr] = None
    nonnull: bool = False
    optional: bool = False
    trusted: bool = False
    element: CType = field(default_factory=lambda: INT)

    @property
    def may_be_null(self) -> bool:
        return not self.nonnull


def pointer_facts(ctype: CType) -> PointerFacts:
    """Classify a (possibly annotated) pointer or array type."""
    stripped = ctype.strip()
    if isinstance(stripped, CArray):
        # Arrays carry their own length; model as COUNT with a constant.
        length = stripped.length if stripped.length is not None else 0
        return PointerFacts(kind=PointerKind.COUNT,
                            count_expr=ast.IntLit(value=length),
                            nonnull=True,
                            element=stripped.element)
    if not isinstance(stripped, CPointer):
        return PointerFacts(element=stripped)
    annos: AnnotationSet = stripped.annotations
    facts = PointerFacts(element=stripped.target)
    facts.nonnull = annos.has(AnnotationKind.NONNULL)
    facts.optional = annos.has(AnnotationKind.OPT)
    facts.trusted = annos.has(AnnotationKind.TRUSTED)
    count = annos.get(AnnotationKind.COUNT)
    bound = annos.get(AnnotationKind.BOUND)
    if count is not None and count.args:
        facts.kind = PointerKind.COUNT
        facts.count_expr = count.args[0]
    elif bound is not None and len(bound.args) >= 2:
        facts.kind = PointerKind.BOUND
        facts.bound_lo = bound.args[0]
        facts.bound_hi = bound.args[1]
    elif annos.has(AnnotationKind.NULLTERM):
        facts.kind = PointerKind.NULLTERM
    elif annos.has(AnnotationKind.SENTINEL):
        facts.kind = PointerKind.SENTINEL
    return facts


@dataclass
class DeputyError:
    """A static type error Deputy reports (must be fixed or trusted)."""

    message: str
    location: object
    function: str = ""

    def __str__(self) -> str:
        where = f" in {self.function}" if self.function else ""
        return f"{self.location}: error{where}: {self.message}"


class TypeEnv:
    """Static types of expressions within one function."""

    def __init__(self, program: Program, func: ast.FuncDef) -> None:
        self.program = program
        self.func = func
        self.locals: dict[str, CType] = {}
        ftype = func.type.strip()
        if isinstance(ftype, CFunc):
            for param in ftype.params:
                if param.name:
                    self.locals[param.name] = param.type
        for decl in program.syntax_of(func).declarations:
            if not decl.is_typedef:
                self.locals[decl.name] = decl.type

    # -- lookups -------------------------------------------------------------

    def type_of_name(self, name: str) -> Optional[CType]:
        if name in self.locals:
            return self.locals[name]
        decl = self.program.globals.get(name)
        if decl is not None:
            return decl.type
        ftype = self.program.function_type(name)
        if ftype is not None:
            return pointer_to(ftype)
        return None

    def type_of(self, expr: ast.Expr) -> CType:
        """Best-effort static type of ``expr`` (INT when unknown)."""
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.CharLit):
            return CHAR
        if isinstance(expr, ast.StrLit):
            return CArray(element=CHAR, length=len(expr.value) + 1)
        if isinstance(expr, ast.Ident):
            found = self.type_of_name(expr.name)
            return found if found is not None else INT
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                return _target_of(self.type_of(expr.operand))
            if expr.op == "&":
                return pointer_to(self.type_of(expr.operand))
            return self.type_of(expr.operand)
        if isinstance(expr, ast.Postfix):
            return self.type_of(expr.operand)
        if isinstance(expr, ast.Index):
            return _target_of(self.type_of(expr.base))
        if isinstance(expr, ast.Member):
            base = self.type_of(expr.base).strip()
            if expr.arrow:
                base = _target_of(base).strip()
            if isinstance(base, CStruct) and base.complete and base.has_field(expr.name):
                return base.field_named(expr.name).type
            return INT
        if isinstance(expr, ast.Cast):
            return expr.to_type
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Ident):
                ftype = self.program.function_type(expr.func.name)
                if ftype is not None:
                    return ftype.return_type
                builtin = _BUILTIN_RETURN_TYPES.get(expr.func.name)
                if builtin is not None:
                    return builtin
            func_type = self.type_of(expr.func).strip()
            if isinstance(func_type, CPointer):
                inner = func_type.target.strip()
                if isinstance(inner, CFunc):
                    return inner.return_type
            return INT
        if isinstance(expr, ast.Assign):
            return self.type_of(expr.target)
        if isinstance(expr, ast.Conditional):
            return self.type_of(expr.then)
        if isinstance(expr, ast.Binary):
            left = self.type_of(expr.left)
            stripped = left.strip()
            if isinstance(stripped, (CPointer, CArray)):
                return left
            right = self.type_of(expr.right)
            if isinstance(right.strip(), (CPointer, CArray)):
                return right
            return left
        if isinstance(expr, (ast.SizeofExpr, ast.SizeofType)):
            return UINT
        if isinstance(expr, ast.Comma):
            return self.type_of(expr.exprs[-1]) if expr.exprs else INT
        return INT

    def facts_of(self, expr: ast.Expr) -> PointerFacts:
        """Pointer facts for the static type of ``expr``."""
        return pointer_facts(self.type_of(expr))


def _target_of(ctype: CType) -> CType:
    stripped = ctype.strip()
    if isinstance(stripped, CPointer):
        return stripped.target
    if isinstance(stripped, CArray):
        return stripped.element
    return INT


def is_constant_expr(expr: ast.Expr) -> bool:
    """Whether ``expr`` is a literal integer constant."""
    return isinstance(expr, (ast.IntLit, ast.CharLit))


def constant_value(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, (ast.IntLit, ast.CharLit)):
        return expr.value
    return None


def compatible_pointer_cast(from_type: CType, to_type: CType) -> bool:
    """Deputy's cast rule: which pointer casts are allowed without `trusted`.

    Casts involving ``void *`` (the ubiquitous kmalloc idiom) and casts
    between pointers with structurally compatible targets are permitted —
    Deputy backs them with a run-time size check.  Casts between unrelated
    object types (e.g. ``struct inode *`` to ``struct dentry *``) are static
    errors unless marked trusted.
    """
    from ..minic.ctypes import CVoid, types_compatible
    src, dst = from_type.strip(), to_type.strip()
    if not isinstance(dst, CPointer):
        return True
    if not isinstance(src, (CPointer, CArray, CInt)):
        return True
    if isinstance(src, CInt):
        # Integer-to-pointer casts are how the kernel talks to hardware;
        # Deputy treats them as trusted-by-default only for constant 0.
        return True
    src_target = (src.target if isinstance(src, CPointer) else src.element).strip()
    dst_target = dst.target.strip()
    if isinstance(src_target, CVoid) or isinstance(dst_target, CVoid):
        return True
    if isinstance(src_target, CInt) and src_target.kind == "char":
        return True
    if isinstance(dst_target, CInt) and dst_target.kind == "char":
        return True
    return types_compatible(src_target, dst_target)
