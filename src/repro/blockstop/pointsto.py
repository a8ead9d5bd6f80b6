"""Function-pointer points-to analysis.

The paper: "The major challenge is to account for calls through function
pointers.  We use a whole-program points-to analysis to determine which
functions a given pointer could refer to" and notes that the analysis is
overly conservative ("Replacing our simple points-to analysis with one that is
field- and context-sensitive would improve the results").

Two precision levels are provided:

* ``TYPE_BASED`` — the paper's simple analysis: an indirect call can reach any
  address-taken function whose type signature matches the call.  Sound but
  conservative; this is what produces the false positives §2.3 reports.
* ``FIELD_SENSITIVE`` — the suggested improvement: function addresses stored
  into a named struct field (``.read = ext2_read``) only flow to calls through
  that same field (``ops->read(...)``).  Signature matching is the fallback
  when the storing field cannot be determined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import CFunc, CPointer, CStruct, CType
from .callgraph import CallGraph, IndirectCall


class Precision(Enum):
    """Precision level of the function-pointer analysis."""

    TYPE_BASED = auto()
    FIELD_SENSITIVE = auto()


@dataclass
class PointsToResult:
    """Resolution of indirect calls to candidate callees."""

    precision: Precision
    address_taken: set[str] = field(default_factory=set)
    by_signature: dict[str, set[str]] = field(default_factory=dict)
    by_field: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    resolved_sites: int = 0
    unresolved_sites: int = 0

    def candidates_for_signature(self, signature: str) -> set[str]:
        return set(self.by_signature.get(signature, set()))

    def candidates_for_field(self, struct_tag: str, field_name: str) -> set[str]:
        return set(self.by_field.get((struct_tag, field_name), set()))


class FunctionPointerAnalysis:
    """Collect address-taken functions and resolve indirect calls."""

    def __init__(self, program: Program,
                 precision: Precision = Precision.TYPE_BASED) -> None:
        self.program = program
        self.precision = precision
        self.result = PointsToResult(precision=precision)

    # -- collection ------------------------------------------------------------

    def collect(self) -> PointsToResult:
        """Scan the program for function addresses stored into data."""
        for unit in self.program.units:
            for decl in unit.decls:
                if isinstance(decl, ast.Declaration) and decl.init is not None:
                    self._collect_initializer(decl.type, decl.init)
                elif isinstance(decl, ast.FuncDef):
                    self._collect_body(decl)
        return self.result

    def _note_function(self, name: str, struct_tag: str | None,
                       field_name: str | None) -> None:
        ftype = self.program.function_type(name)
        if ftype is None:
            return
        self.result.address_taken.add(name)
        signature = ftype.signature()
        self.result.by_signature.setdefault(signature, set()).add(name)
        if struct_tag is not None and field_name is not None:
            key = (struct_tag, field_name)
            self.result.by_field.setdefault(key, set()).add(name)

    def _collect_initializer(self, ctype: CType, init: ast.Initializer) -> None:
        stripped = ctype.strip()
        if init.is_list:
            elements = init.elements or []
            names = init.field_names or [None] * len(elements)
            if isinstance(stripped, CStruct):
                next_index = 0
                for designator, element in zip(names, elements):
                    if designator is not None and stripped.has_field(designator):
                        member = stripped.field_named(designator)
                        next_index = stripped.fields.index(member) + 1
                    elif next_index < len(stripped.fields):
                        member = stripped.fields[next_index]
                        next_index += 1
                    else:
                        continue
                    self._collect_field_initializer(stripped, member.name,
                                                    member.type, element)
            else:
                element_type = getattr(stripped, "element", stripped)
                for element in elements:
                    self._collect_initializer(element_type, element)
            return
        if init.expr is not None:
            self._collect_expr_store(init.expr, None, None)

    def _collect_field_initializer(self, struct: CStruct, field_name: str,
                                   field_type: CType, init: ast.Initializer) -> None:
        if init.is_list:
            self._collect_initializer(field_type, init)
            return
        if init.expr is not None:
            self._collect_expr_store(init.expr, struct.tag, field_name)

    def _collect_body(self, func: ast.FuncDef) -> None:
        # Every store only adds to sets, so assignments and call arguments
        # need not interleave in body order.
        syntax = self.program.syntax_of(func)
        for node in syntax.assigns:
            struct_tag, field_name = self._field_target(node.target)
            self._collect_expr_store(node.value, struct_tag, field_name)
        for node in syntax.calls:
            # Function names passed as call arguments (request_irq etc.).
            for arg in node.args:
                self._collect_expr_store(arg, None, None)

    def _collect_expr_store(self, expr: ast.Expr, struct_tag: str | None,
                            field_name: str | None) -> None:
        if isinstance(expr, ast.Ident) and expr.name in self.program.functions:
            self._note_function(expr.name, struct_tag, field_name)
        elif isinstance(expr, ast.Unary) and expr.op == "&":
            inner = expr.operand
            if isinstance(inner, ast.Ident) and inner.name in self.program.functions:
                self._note_function(inner.name, struct_tag, field_name)
        elif isinstance(expr, ast.Cast):
            self._collect_expr_store(expr.operand, struct_tag, field_name)

    def _field_target(self, target: ast.Expr) -> tuple[str | None, str | None]:
        if isinstance(target, ast.Member):
            return self._struct_tag_of(target), target.name
        return None, None

    def _struct_tag_of(self, member: ast.Member) -> str | None:
        # Without full type information at every point we fall back to the
        # field name alone when the struct tag cannot be recovered; using the
        # same key shape keeps matching consistent.
        return None

    # -- resolution -------------------------------------------------------------

    def resolve(self, graph: CallGraph, indirect_calls: list[IndirectCall],
                envs: dict[str, "TypeEnv"] | None = None) -> PointsToResult:
        """Add call-graph edges for every indirect call site.

        ``envs`` is an optional shared per-function :class:`TypeEnv` cache
        (the engine's symbol-table artifact); it is filled in as a side
        effect so later analyses reuse the same environments.
        """
        env_cache = envs if envs is not None else {}
        for site in indirect_calls:
            callees = self._resolve_site(site, env_cache)
            if callees:
                self.result.resolved_sites += 1
            else:
                self.result.unresolved_sites += 1
            for callee in sorted(callees):
                graph.add_edge(site.caller, callee, indirect=True)
        return self.result

    def _resolve_site(self, site: IndirectCall,
                      env_cache: dict[str, "TypeEnv"]) -> set[str]:
        from ..deputy.typesystem import TypeEnv

        func = self.program.function(site.caller)
        if func is None:
            return set()
        env = env_cache.get(site.caller)
        if env is None:
            env = TypeEnv(self.program, func)
            env_cache[site.caller] = env
        callee_expr = site.expr.func
        # Field-sensitive resolution: ops->read(...) or ops.read(...).
        if self.precision is Precision.FIELD_SENSITIVE and isinstance(callee_expr, ast.Member):
            struct_tag = self._member_struct_tag(env, callee_expr)
            if struct_tag is not None:
                by_field = self.result.candidates_for_field(struct_tag, callee_expr.name)
                if by_field:
                    return by_field
            # Also try the tag-agnostic key recorded for plain assignments.
            by_field = self.result.candidates_for_field(None, callee_expr.name)  # type: ignore[arg-type]
            if by_field:
                return by_field
        # Signature-based fallback (the paper's simple analysis).
        signature = self._callee_signature(env, callee_expr)
        if signature is not None:
            return self.result.candidates_for_signature(signature)
        return set(self.result.address_taken)

    def _member_struct_tag(self, env: "TypeEnv", member: ast.Member) -> str | None:
        base_type = env.type_of(member.base).strip()
        if member.arrow and isinstance(base_type, CPointer):
            base_type = base_type.target.strip()
        if isinstance(base_type, CStruct):
            return base_type.tag
        return None

    def _callee_signature(self, env: "TypeEnv", callee: ast.Expr) -> str | None:
        ctype = env.type_of(callee).strip()
        if isinstance(ctype, CPointer):
            inner = ctype.target.strip()
            if isinstance(inner, CFunc):
                return inner.signature()
        if isinstance(ctype, CFunc):
            return ctype.signature()
        return None

