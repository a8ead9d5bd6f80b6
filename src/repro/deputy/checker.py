"""Deputy's static checker: per-access proof obligations.

Every memory access in the program generates an *obligation*.  The checker
tries to discharge obligations statically (constant indices into constant
arrays, dereferences of address-of expressions, ``nonnull``-annotated
pointers); obligations it cannot discharge become run-time checks inserted by
the instrumenter; code the programmer marked ``trusted`` is skipped but
counted; and operations Deputy's type system cannot express at all (casts
between unrelated object pointers) are reported as static errors the
programmer must fix or explicitly trust.

This is the "hybrid checking" principle of the paper: most operations are
checked statically, the rest at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from ..annotations.attrs import AnnotationKind
from ..machine.interpreter import ctype_size
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import CArray, CPointer, CStruct, CType
from ..minic.errors import SourceLocation
from ..minic.visitor import Transformer, walk
from .typesystem import (
    DeputyError,
    PointerKind,
    TypeEnv,
    compatible_pointer_cast,
    constant_value,
    pointer_facts,
)


class ObligationKind(Enum):
    """What property an access obliges us to establish."""

    DEREF = auto()          # *p and p->f accesses
    INDEX = auto()          # p[i] accesses
    CAST = auto()           # pointer casts
    CALL_CONTRACT = auto()  # count() contracts at call sites
    UNION = auto()          # tagged-union member selection
    NULLTERM = auto()       # accesses through nullterm pointers


class ObligationStatus(Enum):
    """How the obligation was discharged."""

    STATIC = auto()     # proven at compile time
    RUNTIME = auto()    # a run-time check was inserted
    ELIDED = auto()     # a run-time check was proven redundant and removed
    TRUSTED = auto()    # inside trusted code; assumed correct
    ERROR = auto()      # cannot be expressed; reported as a static error


@dataclass
class Obligation:
    """One proof obligation and its resolution."""

    kind: ObligationKind
    status: ObligationStatus
    location: SourceLocation
    function: str = ""
    detail: str = ""
    check: Optional[ast.Expr] = None     # the run-time check call, if any


@dataclass
class DeputyOptions:
    """Configuration of the Deputy checker and instrumenter."""

    optimize: bool = True            # eliminate redundant run-time checks
    honor_nonnull: bool = True       # trust nonnull annotations statically
    check_call_contracts: bool = True
    check_unions: bool = True


@dataclass
class FunctionCheckResult:
    """Checker output for one function."""

    function: str
    trusted: bool = False
    obligations: list[Obligation] = field(default_factory=list)
    errors: list[DeputyError] = field(default_factory=list)

    def count(self, status: ObligationStatus) -> int:
        return sum(1 for o in self.obligations if o.status is status)


# ---------------------------------------------------------------------------
# Per-access decisions (shared by checker and instrumenter)
# ---------------------------------------------------------------------------

@dataclass
class Decision:
    """The outcome of analysing one access."""

    status: ObligationStatus
    kind: ObligationKind
    #: The run-time check call.  Its operands are the access site's own
    #: nodes, not copies: the engine only records and renders checks, and
    #: the instrumenter copies a check once, when it splices it.
    check: Optional[ast.Expr] = None
    detail: str = ""


def decide_deref(env: TypeEnv, pointer: ast.Expr, target_type: CType,
                 options: DeputyOptions, loc: SourceLocation) -> Decision:
    """Decide how to check ``*pointer`` / ``pointer->field``."""
    if isinstance(pointer, ast.Unary) and pointer.op == "&":
        return Decision(ObligationStatus.STATIC, ObligationKind.DEREF,
                        detail="dereference of address-of expression")
    facts = env.facts_of(pointer)
    if facts.trusted:
        return Decision(ObligationStatus.TRUSTED, ObligationKind.DEREF)
    if facts.kind is PointerKind.SENTINEL:
        return Decision(ObligationStatus.ERROR, ObligationKind.DEREF,
                        detail="dereference of sentinel (one-past-the-end) pointer")
    if facts.nonnull and options.honor_nonnull and facts.kind in (
            PointerKind.SAFE, PointerKind.COUNT):
        return Decision(ObligationStatus.STATIC, ObligationKind.DEREF,
                        detail="nonnull-annotated pointer")
    size = max(ctype_size(target_type), 1)
    check = ast.make_call("__deputy_check_ptr", [pointer, ast.int_lit(size)], loc)
    return Decision(ObligationStatus.RUNTIME, ObligationKind.DEREF, check=check)


def _rebind_field_expr(expr: ast.Expr, base: ast.Expr) -> ast.Expr | None:
    """Re-express a field-relative annotation argument at an access site.

    A struct field annotated ``char * count(core_size) core_area`` states its
    bound in terms of a *sibling field*; at an access ``mod->core_area[i]``
    the bound must be evaluated as ``mod->core_size``.  Identifiers that name
    a field of the container are rebound; if the container expression is not
    syntactically available the caller falls back to a trusted obligation.
    """
    # Instrumentation may already have wrapped the base in (check, base);
    # the rightmost expression is the access we care about.
    while isinstance(base, ast.Comma) and base.exprs:
        base = base.exprs[-1]
    if not isinstance(base, ast.Member):
        return expr
    return _FieldSubst(base.base, base.arrow).visit(expr)


class _FieldSubst(Transformer):
    """Every identifier becomes the same-named field of ``base``."""

    def __init__(self, base: ast.Expr, arrow: bool) -> None:
        self.base = base
        self.arrow = arrow

    def visit_Ident(self, node: ast.Ident) -> ast.Expr:
        return ast.Member(base=self.base, name=node.name, arrow=self.arrow,
                          location=node.location)


def decide_index(env: TypeEnv, base: ast.Expr, index: ast.Expr,
                 options: DeputyOptions, loc: SourceLocation,
                 fold=None, prove=None) -> Decision:
    """Decide how to check ``base[index]``.

    ``fold(expr) -> int | None`` supplies flow-sensitive constant facts from
    the region cache (:class:`repro.deputy.optimizer.CheckCache`): an index
    that is a variable with a proven-constant value, compared against a
    constant bound, is discharged statically — the condition-aware twin of
    the literal-constant case — instead of emitting
    ``__deputy_check_index(k, n)``.  Only the *index* is folded through the
    region facts: count/bound expressions name struct fields, which could
    shadow an identically-named local, so they fold through literal
    constants alone.

    ``prove(index, bound) -> str | None`` is the region cache's
    interval/relational prover: it discharges the non-constant case
    ``0 <= index < bound`` when the interval facts pin the lower bound and
    either the index's numeric interval beats a literal bound
    (``"interval"``) or the difference-bound environment entails the strict
    upper bound (``"relational"`` — a dominating loop guard, possibly
    through derived bounds like ``limit == n - 1``).  It receives the
    bound *as rendered at the access site* (after field rebinding), so
    atoms recorded from the loop condition match.
    """
    base_type = env.type_of(base)
    facts = pointer_facts(base_type)
    if facts.trusted:
        return Decision(ObligationStatus.TRUSTED, ObligationKind.INDEX)
    index_const = constant_value(index)
    if index_const is None and fold is not None:
        index_const = fold(index)
    if facts.kind is PointerKind.COUNT and facts.count_expr is not None:
        count_const = constant_value(facts.count_expr)
        if (index_const is not None and count_const is not None
                and 0 <= index_const < count_const):
            return Decision(ObligationStatus.STATIC, ObligationKind.INDEX,
                            detail=f"constant index {index_const} < {count_const}")
        count_expr = _rebind_field_expr(facts.count_expr, base)
        if count_expr is None:
            return Decision(ObligationStatus.TRUSTED, ObligationKind.INDEX,
                            detail="count expression not expressible at access site")
        if prove is not None and (proof := prove(index, count_expr)):
            return Decision(ObligationStatus.STATIC, ObligationKind.INDEX,
                            detail=f"{proof}-bounded index")
        check = ast.make_call("__deputy_check_index", [index, count_expr], loc)
        return Decision(ObligationStatus.RUNTIME, ObligationKind.INDEX, check=check)
    if facts.kind is PointerKind.BOUND and facts.bound_hi is not None:
        bound_const = constant_value(facts.bound_hi)
        if (index_const is not None and bound_const is not None
                and 0 <= index_const < bound_const):
            return Decision(ObligationStatus.STATIC, ObligationKind.INDEX,
                            detail=f"constant index {index_const} < {bound_const}")
        if prove is not None and (proof := prove(index, facts.bound_hi)):
            return Decision(ObligationStatus.STATIC, ObligationKind.INDEX,
                            detail=f"{proof}-bounded index")
        check = ast.make_call("__deputy_check_index", [index, facts.bound_hi], loc)
        return Decision(ObligationStatus.RUNTIME, ObligationKind.INDEX, check=check)
    if facts.kind is PointerKind.NULLTERM:
        check = ast.make_call("__deputy_check_nt", [base, index], loc)
        return Decision(ObligationStatus.RUNTIME, ObligationKind.NULLTERM, check=check)
    # SAFE pointer used as an array: only index 0 is legal.
    if index_const == 0:
        return decide_deref(env, base, _element_type(base_type), options, loc)
    check = ast.make_call("__deputy_check_index", [index, ast.int_lit(1)], loc)
    return Decision(ObligationStatus.RUNTIME, ObligationKind.INDEX, check=check,
                    detail="indexing a SAFE (single-element) pointer")


def decide_cast(env: TypeEnv, cast: ast.Cast, options: DeputyOptions) -> Decision:
    """Decide how to check a pointer cast."""
    to_type = cast.to_type
    stripped = to_type.strip()
    if not isinstance(stripped, CPointer):
        return Decision(ObligationStatus.STATIC, ObligationKind.CAST)
    if cast.trusted:
        return Decision(ObligationStatus.TRUSTED, ObligationKind.CAST)
    from_type = env.type_of(cast.operand)
    if not compatible_pointer_cast(from_type, to_type):
        return Decision(
            ObligationStatus.ERROR, ObligationKind.CAST,
            detail=f"cast from {from_type} to {to_type} needs a trusted annotation")
    target = stripped.target.strip()
    from_stripped = from_type.strip()
    needs_size_check = (
        isinstance(from_stripped, (CPointer, CArray))
        and isinstance(target, CStruct))
    if needs_size_check:
        size = max(ctype_size(target), 1) if target.complete else 1
        check = ast.make_call("__deputy_check_cast",
                              [cast.operand, ast.int_lit(size)], cast.location)
        return Decision(ObligationStatus.RUNTIME, ObligationKind.CAST, check=check)
    return Decision(ObligationStatus.STATIC, ObligationKind.CAST)


def decide_union_access(env: TypeEnv, member: ast.Member,
                        options: DeputyOptions) -> Optional[Decision]:
    """Check a tagged-union member selection against its ``when`` clause."""
    if not options.check_unions:
        return None
    base_type = env.type_of(member.base).strip()
    if member.arrow:
        inner = base_type
        if isinstance(inner, CPointer):
            base_type = inner.target.strip()
    if not isinstance(base_type, CStruct) or not base_type.is_union:
        return None
    if not base_type.complete or not base_type.has_field(member.name):
        return None
    field_info = base_type.field_named(member.name)
    when = field_info.annotations.get(AnnotationKind.WHEN)
    if when is None or not when.args:
        return None
    # The when-expression refers to sibling fields of the struct *containing*
    # the union; substitute those names relative to the union's own base.
    container = member.base
    if not isinstance(container, ast.Member):
        return Decision(ObligationStatus.TRUSTED, ObligationKind.UNION,
                        detail="union container not syntactically visible")
    outer_base = container.base
    cond = _FieldSubst(outer_base, container.arrow).visit(when.args[0])
    check = ast.make_call("__deputy_check_union", [cond], member.location)
    return Decision(ObligationStatus.RUNTIME, ObligationKind.UNION, check=check)


def decide_call_contracts(env: TypeEnv, call: ast.Call,
                          options: DeputyOptions) -> list[Decision]:
    """Checks for ``count()`` contracts on the callee's parameters."""
    if not options.check_call_contracts:
        return []
    if not isinstance(call.func, ast.Ident):
        return []
    ftype = env.program.function_type(call.func.name)
    if ftype is None:
        return []
    decisions: list[Decision] = []
    param_names = [p.name for p in ftype.params]
    for position, param in enumerate(ftype.params):
        if position >= len(call.args):
            break
        facts = pointer_facts(param.type)
        if facts.kind is not PointerKind.COUNT or facts.count_expr is None:
            continue
        count_expr = _substitute_params(facts.count_expr, param_names, call.args)
        if count_expr is None:
            decisions.append(Decision(ObligationStatus.TRUSTED,
                                      ObligationKind.CALL_CONTRACT,
                                      detail="count expression not expressible at call site"))
            continue
        arg = call.args[position]
        arg_type = env.type_of(arg).strip()
        count_const = constant_value(count_expr)
        if (isinstance(arg_type, CArray) and arg_type.length is not None
                and count_const is not None and count_const <= arg_type.length):
            decisions.append(Decision(ObligationStatus.STATIC,
                                      ObligationKind.CALL_CONTRACT,
                                      detail="array length covers requested count"))
            continue
        element = facts.element
        size = max(ctype_size(element), 1)
        check = ast.make_call("__deputy_check_count",
                              [arg, count_expr, ast.int_lit(size)], call.location)
        decisions.append(Decision(ObligationStatus.RUNTIME,
                                  ObligationKind.CALL_CONTRACT, check=check))
    return decisions


def _substitute_params(expr: ast.Expr, param_names: list[str],
                       args: list[ast.Expr]) -> Optional[ast.Expr]:
    """Rewrite callee-parameter names to caller argument expressions."""
    mapping = {name: args[index] for index, name in enumerate(param_names)
               if index < len(args) and name}
    unresolved = [node.name for node in walk(expr)
                  if isinstance(node, ast.Ident) and node.name not in mapping]
    if unresolved:
        return None
    return _ParamSubst(mapping).visit(expr)


class _ParamSubst(Transformer):
    """Every identifier becomes the caller's argument it names."""

    def __init__(self, mapping: dict[str, ast.Expr]) -> None:
        self.mapping = mapping

    def visit_Ident(self, node: ast.Ident) -> ast.Expr:
        return self.mapping.get(node.name, node)


def _element_type(ctype: CType) -> CType:
    stripped = ctype.strip()
    if isinstance(stripped, CPointer):
        return stripped.target
    if isinstance(stripped, CArray):
        return stripped.element
    return stripped


# ---------------------------------------------------------------------------
# Whole-program checking (without rewriting)
# ---------------------------------------------------------------------------

def check_program(program: Program,
                  options: DeputyOptions | None = None,
                  functions: list[str] | None = None,
                  env_cache: dict[str, TypeEnv] | None = None,
                  facts: dict | None = None,
                  ) -> dict[str, FunctionCheckResult]:
    """Run the static checker over every function; no code is modified.

    Returns per-function results; the instrumenter performs the same analysis
    while also rewriting the tree.  ``functions`` restricts checking to a
    subset of definitions (the engine's per-translation-unit sharding),
    ``env_cache`` shares per-function type environments across analyses, and
    ``facts`` supplies the solved per-function dataflow artifact whose
    interval environments seed the loop-bound discharge.
    """
    from .instrument import DeputyInstrumenter

    instrumenter = DeputyInstrumenter(program, options or DeputyOptions(),
                                      env_cache=env_cache, facts=facts)
    instrumenter.run(rewrite=False, functions=functions)
    return instrumenter.results
