"""Future analysis (§3.1): error-code checking at call sites.

Functions whose negative return values are error codes (either annotated with
``errcodes(...)`` or detected by the "negative constant returns are errors"
heuristic the paper suggests) must have their results checked by callers.
A call whose result is discarded, stored and never compared afterwards, or
used in a position that cannot constitute a check, is reported.

Every use of a call's result is classified explicitly:

* ``condition`` — the result (possibly through ``!``/``-``/casts) controls a
  branch or appears in a comparison: checked.
* ``propagated`` — returned to the caller, which inherits the obligation.
* ``argument`` — passed to another function, which assumes the obligation.
* ``assigned`` — stored in a variable; a flow-sensitive pass (on the shared
  CFG + fixpoint solver, :mod:`repro.dataflow`) then requires a comparison
  *reachable from* the assignment.  A comparison of the same variable that
  executes before the call does not count, and neither does one that is
  killed by an intervening re-assignment.
* anything else is an unrecognized position and is reported as unchecked —
  nothing falls through to "checked" silently.

The scan is condition-aware (:mod:`repro.dataflow.consts`): a call inside a
constant-false arm never runs, so it creates no obligation at all, and the
assigned-then-compared solve skips infeasible edges.  Checks themselves may
be expressed through folded constants — ``switch (ret) { case -EINVAL: }``
and ``if (ret == <folded #define constant>)`` both credit the obligation
(the comparison crediting is structural; the error-*return* detection folds
``return 0 - EINVAL;``-style expressions through the constants evaluator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..annotations.attrs import AnnotationKind
from ..dataflow import COND, DECL, build_cfg, reachable_blocks, solve_forward
from ..dataflow.consts import refined_edges
from ..dataflow.domains import FunctionFacts, facts_of
from ..dataflow.summaries import FunctionSummary
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import iter_child_nodes, walk

if TYPE_CHECKING:  # the engine imports this module
    from ..engine.artifacts import SharedArtifacts

_COMPARISONS = frozenset({"<", "<=", "==", "!=", ">", ">="})
_LOGICAL = frozenset({"&&", "||"})
#: Unary operators that preserve "is this error code zero?" information:
#: the kernel idioms ``if (!ret)`` and ``if (-ret)``.
_CHECK_UNARIES = frozenset({"!", "-"})

#: Abstract state of the assigned-then-compared pass: the set of
#: ``(variable, call_index)`` obligations still pending a comparison.
PendingState = frozenset


@dataclass(frozen=True)
class UncheckedCall:
    """A call whose error return value is never examined."""

    caller: str
    callee: str
    location: object
    reason: str


@dataclass
class ErrcheckReport:
    """Result of the error-code analysis."""

    error_returning: set[str] = field(default_factory=set)
    checked_calls: int = 0
    passed_to_callee: int = 0
    unchecked: list[UncheckedCall] = field(default_factory=list)

    @property
    def unchecked_count(self) -> int:
        return len(self.unchecked)


def find_error_returning_functions(
        program: Program,
        summaries: dict[str, FunctionSummary]) -> set[str]:
    """Functions that may return a negative error constant.

    Derived from the interprocedural summaries: a function is
    error-returning when it is annotated ``errcodes(...)``, returns a
    negative constant directly, or *propagates* a callee's error return
    (``return helper();``) — the summary's error-return set carries the
    codes bottom-up through the call graph, so wrappers inherit the
    obligation their helpers create instead of silently laundering it.
    """
    result: set[str] = set()
    for name in program.all_function_names():
        annotations = program.function_annotations(name)
        if annotations.has(AnnotationKind.ERRCODES):
            result.add(name)
    result |= {name for name, summary in summaries.items()
               if summary.error_returns and summary.defined}
    return result


def check_error_returns(artifacts: SharedArtifacts,
                        functions: list[str] | None = None) -> ErrcheckReport:
    """Check that error-returning calls have their results examined.

    Reads the pipeline's error-returning set and per-function condition
    facts from ``artifacts``: calls inside constant-false arms create no
    obligation at all, and the assigned-then-compared pass never
    propagates pending obligations across infeasible edges.
    ``functions`` restricts the scan to a subset of defined functions
    (every one when None) so the engine can shard by translation unit.
    The ``unchecked`` list comes out sorted by (function, location) so
    shard merge order never changes the rendered report.
    """
    program = artifacts.program
    report = ErrcheckReport(error_returning=artifacts.error_returning)
    for caller, func in program.functions_subset(functions):
        _scan_function(report, caller, func, program.syntax(caller),
                       artifacts.consts)
    report.unchecked.sort(key=_unchecked_sort_key)
    return report


def _unchecked_sort_key(call: UncheckedCall) -> tuple:
    return (call.caller, getattr(call.location, "filename", "") or "",
            getattr(call.location, "line", 0) or 0,
            getattr(call.location, "column", 0) or 0, call.callee)


# ---------------------------------------------------------------------------
# Usage classification
# ---------------------------------------------------------------------------

def _parent_map(root: ast.Node) -> dict[int, ast.Node]:
    parents: dict[int, ast.Node] = {}
    for node in walk(root):
        for child in iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _classify_usage(call: ast.Call,
                    parents: dict[int, ast.Node]) -> tuple[str, str | None]:
    """How the result of ``call`` is consumed: ``(kind, assigned_variable)``.

    Climbs through value-transparent positions (casts, ternary arms, the
    last expression of a comma) to the first consuming construct.
    """
    node: ast.Node = call
    while True:
        parent = parents.get(id(node))
        if parent is None:
            return "unknown", None
        if isinstance(parent, ast.ExprStmt):
            return "discarded", None
        if isinstance(parent, ast.Assign):
            if parent.value is node:
                if isinstance(parent.target, ast.Ident):
                    return "assigned", parent.target.name
                return "assigned-to-memory", None
            return "unknown", None      # call in lvalue position
        if isinstance(parent, ast.Initializer):
            climber: ast.Node | None = parent
            while isinstance(climber, ast.Initializer):
                climber = parents.get(id(climber))
            if isinstance(climber, ast.Declaration) and climber.name:
                return "assigned", climber.name
            return "unknown", None
        if isinstance(parent, (ast.If, ast.While, ast.DoWhile, ast.Switch)):
            return "condition", None    # the cond is the only expression child
        if isinstance(parent, ast.For):
            if node is parent.cond:
                return "condition", None
            return "discarded", None    # for-init / for-step value is unused
        if isinstance(parent, ast.Return):
            return "propagated", None
        if isinstance(parent, ast.Binary):
            if parent.op in _COMPARISONS or parent.op in _LOGICAL:
                return "condition", None
            return "unknown", None      # arithmetic on an unchecked error code
        if isinstance(parent, ast.Unary):
            if parent.op in _CHECK_UNARIES:
                node = parent           # !/- preserve the check information
                continue
            return "unknown", None
        if isinstance(parent, ast.Call):
            if any(argument is node for argument in parent.args):
                return "argument", None
            return "unknown", None      # used as the callee expression
        if isinstance(parent, ast.Cast):
            node = parent
            continue
        if isinstance(parent, ast.Conditional):
            if node is parent.cond:
                return "condition", None
            node = parent               # the value flows through the arm
            continue
        if isinstance(parent, ast.Comma):
            if parent.exprs and parent.exprs[-1] is node:
                node = parent
                continue
            return "discarded", None
        return "unknown", None


# ---------------------------------------------------------------------------
# Flow-sensitive assigned-then-compared pass
# ---------------------------------------------------------------------------

def _value_sources(expr: ast.Expr) -> list[ast.Expr]:
    """The expressions whose value can become the value of ``expr``.

    Mirrors the value-transparent climb of :func:`_classify_usage`, descending
    instead: casts, both ternary arms, and the last expression of a comma.
    """
    if isinstance(expr, ast.Cast):
        return _value_sources(expr.operand)
    if isinstance(expr, ast.Conditional):
        return _value_sources(expr.then) + _value_sources(expr.otherwise)
    if isinstance(expr, ast.Comma):
        return _value_sources(expr.exprs[-1]) if expr.exprs else []
    return [expr]


def _strip_check(expr: ast.Expr) -> ast.Expr:
    """Peel wrappers that preserve "is this error code zero?" information:
    casts, ``!ret``/``-ret`` (and ``!!ret``), and an embedded assignment —
    the kernel idiom ``if ((rc = f()) < 0)`` examines ``rc``."""
    while True:
        if isinstance(expr, ast.Cast):
            expr = expr.operand
        elif isinstance(expr, ast.Unary) and expr.op in _CHECK_UNARIES:
            expr = expr.operand
        elif isinstance(expr, ast.Assign) and isinstance(expr.target, ast.Ident):
            expr = expr.target
        else:
            return expr


def _credit(state: PendingState, expr: ast.Expr,
            checked: set[int] | None) -> PendingState:
    """Discharge the pending obligations of the variable ``expr`` examines."""
    target = _strip_check(expr)
    if not isinstance(target, ast.Ident):
        return state
    hits = frozenset(pair for pair in state if pair[0] == target.name)
    if not hits:
        return state
    if checked is not None:
        checked.update(index for _, index in hits)
    return state - hits


def _bind(state: PendingState, variable: str, value: ast.Expr,
          assigned: dict[int, int]) -> PendingState:
    """Kill ``variable``'s obligations, then gen new ones from ``value``."""
    state = frozenset(pair for pair in state if pair[0] != variable)
    for source in _value_sources(value):
        if isinstance(source, ast.Call) and id(source) in assigned:
            state = state | {(variable, assigned[id(source)])}
    return state


def _eval_expr(state: PendingState, expr: ast.Expr,
               assigned: dict[int, int],
               checked: set[int] | None) -> PendingState:
    """Step the state through ``expr`` in evaluation order (children first).

    Processing sub-expressions before the construct that consumes them makes
    ``if ((rc = f()) < 0)`` work: the assignment gens the obligation, then
    the enclosing comparison discharges it.
    """
    if isinstance(expr, ast.Assign):
        state = _eval_expr(state, expr.value, assigned, checked)
        if isinstance(expr.target, ast.Ident):
            return _bind(state, expr.target.name, expr.value, assigned)
        return _eval_expr(state, expr.target, assigned, checked)
    if isinstance(expr, ast.Binary):
        state = _eval_expr(state, expr.left, assigned, checked)
        state = _eval_expr(state, expr.right, assigned, checked)
        if expr.op in _COMPARISONS or expr.op in _LOGICAL:
            # Comparison operands are examined; && / || operands are
            # truth-tested (`if (rc && rc != -11)`), which is also a check.
            state = _credit(state, expr.left, checked)
            state = _credit(state, expr.right, checked)
        return state
    if isinstance(expr, ast.Conditional):
        state = _eval_expr(state, expr.cond, assigned, checked)
        state = _credit(state, expr.cond, checked)
        state = _eval_expr(state, expr.then, assigned, checked)
        state = _eval_expr(state, expr.otherwise, assigned, checked)
        return state
    for child in iter_child_nodes(expr):
        state = _eval_expr(state, child, assigned, checked)
    return state


def _apply_element(state: PendingState, element,
                   assigned: dict[int, int],
                   checked: set[int] | None = None) -> PendingState:
    """Step the pending-obligation state over one CFG element.

    ``assigned`` maps ``id(call_node) -> call_index`` for the calls whose
    results are stored in a variable.  With ``checked`` supplied this is the
    recording pass: discharged obligations land in that set.
    """
    if element.expr is None:
        return state
    state = _eval_expr(state, element.expr, assigned, checked)
    if element.kind == DECL and element.decl is not None and element.decl.name:
        state = _bind(state, element.decl.name, element.expr, assigned)
    if element.kind == COND:
        state = _credit(state, element.expr, checked)
    return state


def _join(a: PendingState, b: PendingState) -> PendingState:
    return a | b


def _scan_function(report: ErrcheckReport, caller: str,
                   func: ast.FuncDef, syntax: FunctionSyntax,
                   consts_cache: dict[str, FunctionFacts | None]) -> None:
    call_nodes = [node for node in syntax.calls
                  if (isinstance(node.func, ast.Ident)
                      and node.func.name in report.error_returning)]
    if not call_nodes:
        return      # skip the parent-map walk on the (common) irrelevant function
    func_consts = facts_of(func, cache=consts_cache, syntax=syntax)
    cfg = None
    if func_consts is not None and func_consts.prunes:
        # A call in a provably-dead arm can never run: it creates no
        # obligation (and is not "checked" either — it simply is not there).
        cfg = build_cfg(func)
        live = {id(node)
                for block in cfg.blocks if block.index in func_consts.reachable
                for element in block.elements if element.expr is not None
                for node in walk(element.expr)}
        call_nodes = [node for node in call_nodes if id(node) in live]
        if not call_nodes:
            return
    parents = _parent_map(func.body)
    calls: list[tuple[ast.Call, str, str | None]] = [
        (node, *_classify_usage(node, parents)) for node in call_nodes]

    assigned = {id(call): index for index, (call, kind, _) in enumerate(calls)
                if kind == "assigned"}
    checked_ids: set[int] = set()
    if assigned:
        cfg = cfg or build_cfg(func)

        def transfer(block, state: PendingState) -> PendingState:
            for element in block.elements:
                state = _apply_element(state, element, assigned)
            return state

        in_states = solve_forward(cfg, transfer, _join,
                                  entry_state=frozenset(),
                                  edge_refine=refined_edges(func_consts))
        for block, state in reachable_blocks(cfg, in_states):
            for element in block.elements:
                state = _apply_element(state, element, assigned, checked_ids)

    for index, (call, kind, variable) in enumerate(calls):
        callee = call.func.name
        if kind == "discarded":
            report.unchecked.append(UncheckedCall(
                caller=caller, callee=callee, location=call.location,
                reason="return value discarded"))
        elif kind == "assigned":
            if index in checked_ids:
                report.checked_calls += 1
            else:
                report.unchecked.append(UncheckedCall(
                    caller=caller, callee=callee, location=call.location,
                    reason=f"stored in {variable!r} but never compared"))
        elif kind == "unknown":
            report.unchecked.append(UncheckedCall(
                caller=caller, callee=callee, location=call.location,
                reason="used in a position that is not a check"))
        elif kind == "argument":
            report.checked_calls += 1
            report.passed_to_callee += 1
        else:   # condition, propagated, assigned-to-memory
            report.checked_calls += 1
