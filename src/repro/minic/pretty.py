"""Pretty printer: render MiniC ASTs back to source text.

The instrumenters are source-to-source tools, so the printed output of any
(possibly transformed) AST must re-parse to an equivalent tree.  The printer
can optionally *erase* annotations, which demonstrates the paper's erasure
semantics: an annotated file printed with ``erase_annotations=True`` is plain
MiniC that a stock build would accept.
"""

from __future__ import annotations

from ..annotations.attrs import AnnotationSet
from . import ast_nodes as ast
from .ctypes import (
    CArray,
    CEnum,
    CFloat,
    CFunc,
    CInt,
    CNamed,
    CPointer,
    CStruct,
    CType,
    CVoid,
)

_INDENT = "    "


class PrettyPrinter:
    """Render AST nodes as MiniC source text."""

    def __init__(self, erase_annotations: bool = False) -> None:
        self.erase_annotations = erase_annotations

    # -- public entry points ----------------------------------------------

    def print_unit(self, unit: ast.TranslationUnit) -> str:
        parts = [self.print_top_level(decl) for decl in unit.decls]
        return "\n".join(parts) + "\n"

    def print_top_level(self, node: ast.Node) -> str:
        if isinstance(node, ast.FuncDef):
            return self.print_funcdef(node)
        if isinstance(node, ast.Declaration):
            return self.print_declaration(node) + ";"
        if isinstance(node, ast.StructDecl):
            return self.print_type_definition(node.ctype) + ";"
        raise TypeError(f"cannot print top-level node {type(node).__name__}")

    def print_funcdef(self, func: ast.FuncDef) -> str:
        return f"{self.print_signature(func)}\n{self.print_stmt(func.body, 0)}"

    def print_signature(self, func: ast.FuncDef) -> str:
        """A definition's header: storage, return type, name, parameters
        with their annotations, then the function's annotations."""
        storage = f"{func.storage} " if func.storage else ""
        annos = self._annotations(func.annotations, leading_space=True)
        return (storage
                + self._declare(func.type, func.name, skip_func_annos=True)
                + annos)

    def print_declaration(self, decl: ast.Declaration) -> str:
        storage = f"{decl.storage} " if decl.storage else ""
        # A prototype's annotations live both on the declaration and on its
        # function type; print the deduplicated union once, or the rendering
        # would not round-trip (each re-parse would double the annotations).
        stripped = decl.type.strip()
        if isinstance(stripped, CFunc):
            merged = AnnotationSet()
            seen: set[str] = set()
            for source in (decl.annotations, stripped.annotations):
                for annotation in source:
                    # Dedupe by rendered form, not kind: two acquires(...)
                    # facts with different arguments must both survive.
                    rendered = str(annotation)
                    if rendered not in seen:
                        seen.add(rendered)
                        merged.add(annotation)
            annos = self._annotations(merged, leading_space=True)
            text = (storage
                    + self._declare(decl.type, decl.name, skip_func_annos=True)
                    + annos)
        else:
            annos = self._annotations(decl.annotations, leading_space=True)
            text = storage + self._declare(decl.type, decl.name) + annos
        if decl.init is not None:
            text += " = " + self.print_initializer(decl.init)
        return text

    def print_initializer(self, init: ast.Initializer) -> str:
        if init.is_list:
            parts = []
            for name, element in zip(init.field_names or [], init.elements or []):
                rendered = self.print_initializer(element)
                if name:
                    rendered = f".{name} = {rendered}"
                parts.append(rendered)
            return "{ " + ", ".join(parts) + " }"
        return self.print_expr(init.expr)

    def print_type_definition(self, ctype: CType) -> str:
        stripped = ctype.strip()
        if isinstance(stripped, CStruct):
            lines = [f"{stripped.kind_name} {stripped.tag} {{"]
            for member in stripped.fields:
                annos = self._annotations(member.annotations, leading_space=True)
                lines.append(_INDENT + self._declare(member.type, member.name)
                             + annos + ";")
            lines.append("}")
            return "\n".join(lines)
        if isinstance(stripped, CEnum):
            members = ",\n".join(f"{_INDENT}{name} = {value}"
                                 for name, value in stripped.members.items())
            return f"enum {stripped.tag} {{\n{members}\n}}"
        return self.type_name(ctype)

    # -- statements --------------------------------------------------------

    def print_stmt(self, stmt: ast.Stmt, depth: int) -> str:
        pad = _INDENT * depth
        if isinstance(stmt, ast.Block):
            prefix = "" if self.erase_annotations or not stmt.trusted else "trusted "
            inner = "\n".join(self.print_stmt(s, depth + 1) for s in stmt.stmts)
            if inner:
                return f"{pad}{prefix}{{\n{inner}\n{pad}}}"
            return f"{pad}{prefix}{{\n{pad}}}"
        if isinstance(stmt, ast.ExprStmt):
            return f"{pad}{self.print_expr(stmt.expr)};"
        if isinstance(stmt, ast.EmptyStmt):
            return f"{pad};"
        if isinstance(stmt, ast.DeclStmt):
            return f"{pad}{self.print_declaration(stmt.decl)};"
        if isinstance(stmt, ast.If):
            text = f"{pad}if ({self.print_expr(stmt.cond)})\n"
            text += self.print_stmt(stmt.then, depth + 1)
            if stmt.otherwise is not None:
                text += f"\n{pad}else\n" + self.print_stmt(stmt.otherwise, depth + 1)
            return text
        if isinstance(stmt, ast.While):
            return (f"{pad}while ({self.print_expr(stmt.cond)})\n"
                    + self.print_stmt(stmt.body, depth + 1))
        if isinstance(stmt, ast.DoWhile):
            return (f"{pad}do\n" + self.print_stmt(stmt.body, depth + 1)
                    + f"\n{pad}while ({self.print_expr(stmt.cond)});")
        if isinstance(stmt, ast.For):
            init = ""
            if isinstance(stmt.init, ast.Declaration):
                init = self.print_declaration(stmt.init)
            elif isinstance(stmt.init, ast.Expr):
                init = self.print_expr(stmt.init)
            cond = self.print_expr(stmt.cond) if stmt.cond else ""
            step = self.print_expr(stmt.step) if stmt.step else ""
            return (f"{pad}for ({init}; {cond}; {step})\n"
                    + self.print_stmt(stmt.body, depth + 1))
        if isinstance(stmt, ast.Switch):
            lines = [f"{pad}switch ({self.print_expr(stmt.cond)}) {{"]
            for case in stmt.cases:
                if case.value is None:
                    lines.append(f"{pad}default:")
                else:
                    lines.append(f"{pad}case {self.print_expr(case.value)}:")
                lines.extend(self.print_stmt(s, depth + 1) for s in case.stmts)
            lines.append(f"{pad}}}")
            return "\n".join(lines)
        if isinstance(stmt, ast.Break):
            return f"{pad}break;"
        if isinstance(stmt, ast.Continue):
            return f"{pad}continue;"
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return f"{pad}return;"
            return f"{pad}return {self.print_expr(stmt.value)};"
        if isinstance(stmt, ast.Goto):
            return f"{pad}goto {stmt.label};"
        if isinstance(stmt, ast.Label):
            inner = self.print_stmt(stmt.stmt, depth) if stmt.stmt else f"{pad};"
            return f"{pad}{stmt.name}:\n{inner}"
        if isinstance(stmt, ast.Asm):
            return f'{pad}asm("{stmt.text}");'
        raise TypeError(f"cannot print statement {type(stmt).__name__}")

    # -- expressions ---------------------------------------------------------

    def print_expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.CharLit):
            ch = chr(expr.value)
            escaped = {"\n": "\\n", "\t": "\\t", "\0": "\\0", "'": "\\'",
                       "\\": "\\\\"}.get(ch, ch)
            return f"'{escaped}'"
        if isinstance(expr, ast.StrLit):
            escaped = (expr.value.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\t", "\\t").replace("\0", "\\0"))
            return f'"{escaped}"'
        if isinstance(expr, ast.Ident):
            return expr.name
        if isinstance(expr, ast.Unary):
            return f"{expr.op}({self.print_expr(expr.operand)})"
        if isinstance(expr, ast.Postfix):
            return f"({self.print_expr(expr.operand)}){expr.op}"
        if isinstance(expr, ast.Binary):
            return f"({self.print_expr(expr.left)} {expr.op} {self.print_expr(expr.right)})"
        if isinstance(expr, ast.Assign):
            return f"{self.print_expr(expr.target)} {expr.op} {self.print_expr(expr.value)}"
        if isinstance(expr, ast.Conditional):
            return (f"({self.print_expr(expr.cond)} ? {self.print_expr(expr.then)}"
                    f" : {self.print_expr(expr.otherwise)})")
        if isinstance(expr, ast.Call):
            args = ", ".join(self.print_expr(a) for a in expr.args)
            return f"{self.print_expr(expr.func)}({args})"
        if isinstance(expr, ast.Index):
            return f"{self.print_expr(expr.base)}[{self.print_expr(expr.index)}]"
        if isinstance(expr, ast.Member):
            sep = "->" if expr.arrow else "."
            return f"{self.print_expr(expr.base)}{sep}{expr.name}"
        if isinstance(expr, ast.Cast):
            trusted = "" if self.erase_annotations or not expr.trusted else " trusted"
            return f"(({self.type_name(expr.to_type)}{trusted})({self.print_expr(expr.operand)}))"
        if isinstance(expr, ast.SizeofType):
            return f"sizeof({self.type_name(expr.of_type)})"
        if isinstance(expr, ast.SizeofExpr):
            return f"sizeof({self.print_expr(expr.operand)})"
        if isinstance(expr, ast.Comma):
            return "(" + ", ".join(self.print_expr(e) for e in expr.exprs) + ")"
        raise TypeError(f"cannot print expression {type(expr).__name__}")

    # -- types ----------------------------------------------------------------

    def type_name(self, ctype: CType) -> str:
        return self._declare(ctype, "")

    def _declare(self, ctype: CType, name: str, skip_func_annos: bool = False) -> str:
        """Render a declaration of ``name`` with type ``ctype`` (C inside-out rule)."""
        if isinstance(ctype, CNamed):
            return f"{ctype.name} {name}".rstrip()
        if isinstance(ctype, (CVoid, CInt, CFloat, CEnum)):
            return f"{ctype} {name}".rstrip()
        if isinstance(ctype, CStruct):
            return f"{ctype.kind_name} {ctype.tag} {name}".rstrip()
        if isinstance(ctype, CPointer):
            annos = self._annotations(ctype.annotations, trailing_space=True)
            inner = f"*{annos}{name}"
            target = ctype.target
            if isinstance(target, (CFunc, CArray)):
                return self._declare(target, f"({inner})")
            return self._declare(target, inner)
        if isinstance(ctype, CArray):
            length = "" if ctype.length is None else str(ctype.length)
            return self._declare(ctype.element, f"{name}[{length}]")
        if isinstance(ctype, CFunc):
            params = ", ".join(
                self._declare(p.type, p.name)
                + self._annotations(p.annotations, leading_space=True)
                for p in ctype.params)
            if ctype.varargs:
                params = f"{params}, ..." if params else "..."
            if not params:
                params = "void"
            annos = ""
            if not skip_func_annos:
                annos = self._annotations(ctype.annotations, leading_space=True)
            return self._declare(ctype.return_type, f"{name}({params})") + annos
        raise TypeError(f"cannot render type {type(ctype).__name__}")

    def _annotations(self, annotations: AnnotationSet,
                     leading_space: bool = False,
                     trailing_space: bool = False) -> str:
        if self.erase_annotations or not annotations:
            return ""
        rendered = " ".join(str(a) for a in annotations)
        if leading_space:
            rendered = " " + rendered
        if trailing_space:
            rendered = rendered + " "
        return rendered


def render_unit(unit: ast.TranslationUnit, erase_annotations: bool = False) -> str:
    """Render a whole translation unit back to MiniC source."""
    return PrettyPrinter(erase_annotations).print_unit(unit)


def render_expression(expr: ast.Expr) -> str:
    """Render a single expression (used for diagnostics and annotations)."""
    return PrettyPrinter().print_expr(expr)
