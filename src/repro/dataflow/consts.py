"""Constant propagation with branch-edge refinement over the shared CFG.

This is the condition-aware half of the dataflow core: every checker in the
repro runs a lattice over :mod:`repro.dataflow.cfg` graphs, and until this
module existed all of them treated branch conditions as opaque — an
``if (0)`` arm was joined into the merge state exactly like a live arm, so
config-gated kernel idioms (``#define DEBUG 0`` slow paths, ``do { } while
(0)`` wrappers, constant-guarded debug branches) produced findings from code
that provably never runs.

The lattice here is the classic constant-propagation one, per variable:
⊥ (unreachable, the solver's ``None``) / *const* (a known integer) /
⊤ (unknown, represented by absence from the environment).  An environment
maps the function's *trackable* names — scalar parameters and locals whose
address is never taken, the only storage no call or pointer store can write
— to known integer values; the join at merge points is intersection of
agreeing bindings.  ``#define`` constants need no special handling: the
preprocessor folds object-like macros before parsing, so a folded name
arrives here as the literal it expands to, and locals *initialized from*
folded names (``int want = -EINVAL;``) are carried by the environment.

On top of the per-block solve, CFG **edges** are refined:

* the branch edges of ``if``/``while``/``do``/``for`` conditions gain
  *condition facts* — the true edge of ``if (x == 0)`` knows ``x = 0``, the
  false edge of ``if (x != 3)`` knows ``x = 3``, ``case`` edges know the
  scrutinee's value;
* an edge whose condition evaluates to a constant that contradicts the
  branch (``if (0)``'s true edge, ``while (0)``'s body edge, the ``case 2``
  edge of ``switch (1)``) is marked **infeasible**: the solver never
  propagates state across it, so the dead arm stays at ⊥ and its effects
  never reach the merge.

Client lattices (lockcheck's multiset, blockstop's disable depth, errcheck's
pending obligations, the summary sweep) consume the result as a *reduced
product*: the constant component is solved once per function, cached by the
engine, and re-applied as an edge filter (:func:`refined_edges`) to every
client solve — equivalent to running the product lattice directly, because
the constant component never depends on any client component.

Known imprecision, on purpose: facts are non-relational (``x == y`` refines
nothing), globals and address-taken locals are never tracked (a callee could
write them), casts are value-transparent (no truncation modelling), and a
condition containing an assignment or ``++``/``--`` contributes no facts
(the tested value and the post-condition value differ).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from ..minic import ast_nodes as ast
from ..minic.syntax import FunctionSyntax, index_function
from ..minic.visitor import iter_child_nodes, walk
from .cfg import CFG, BasicBlock, Edge, build_cfg
from .solver import INFEASIBLE, solve_forward

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.program import Program

#: A constant environment: trackable name -> known integer value.  Absence
#: means ⊤ (unknown); the whole-env ⊥ is the solver's ``None``.
ConstEnv = dict

#: Canonical (hashable, deterministic) form of an environment for storage.
FrozenEnv = tuple[tuple[str, int], ...]


def freeze_env(env: Mapping[str, int]) -> FrozenEnv:
    return tuple(sorted(env.items()))


def join_envs(a: ConstEnv, b: ConstEnv) -> ConstEnv:
    """Lattice join: keep only the bindings both environments agree on."""
    if a == b:
        return a
    return {name: value for name, value in a.items() if b.get(name) == value}


# ---------------------------------------------------------------------------
# Expression folding
# ---------------------------------------------------------------------------

_EMPTY_ENV: ConstEnv = {}


def _c_div(a: int, b: int) -> Optional[int]:
    if b == 0:
        return None
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _c_mod(a: int, b: int) -> Optional[int]:
    quotient = _c_div(a, b)
    return None if quotient is None else a - quotient * b


def eval_const(expr: Optional[ast.Expr], env: Mapping[str, int] = _EMPTY_ENV) -> Optional[int]:
    """Fold ``expr`` to an integer under ``env``, or ``None`` when unknown.

    Handles the full integer-expression surface of MiniC: literals, tracked
    identifiers, unary ``- ! ~``, binary arithmetic/bitwise/shift/comparison
    /logical operators, the ternary operator, casts (value-transparent) and
    the comma operator.  Assignments, increments, calls and memory reads are
    never folded — their values are the transfer function's business.
    """
    if expr is None:
        return None
    if isinstance(expr, (ast.IntLit, ast.CharLit)):
        return expr.value
    if isinstance(expr, ast.Ident):
        return env.get(expr.name)
    if isinstance(expr, ast.Unary):
        if expr.op not in ("-", "!", "~"):
            return None
        value = eval_const(expr.operand, env)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return int(value == 0)
        return ~value
    if isinstance(expr, ast.Binary):
        left = eval_const(expr.left, env)
        if left is None:
            return None
        # C short-circuit semantics: a decided left operand answers alone
        # (the right side may be non-constant, or divide by zero, etc.).
        if expr.op == "&&" and left == 0:
            return 0
        if expr.op == "||" and left != 0:
            return 1
        right = eval_const(expr.right, env)
        if right is None:
            return None
        return _fold_binary(expr.op, left, right)
    if isinstance(expr, ast.Conditional):
        cond = eval_const(expr.cond, env)
        if cond is not None:
            return eval_const(expr.then if cond else expr.otherwise, env)
        then = eval_const(expr.then, env)
        if then is not None and then == eval_const(expr.otherwise, env):
            return then
        return None
    if isinstance(expr, ast.Cast):
        return eval_const(expr.operand, env)
    if isinstance(expr, ast.Comma):
        if not expr.exprs or _has_side_effects(expr):
            return None
        return eval_const(expr.exprs[-1], env)
    if isinstance(expr, ast.SizeofType):
        try:
            from ..machine.interpreter import ctype_size

            return ctype_size(expr.of_type)
        except Exception:
            return None
    return None


def _fold_binary(op: str, left: int, right: int) -> Optional[int]:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return _c_div(left, right)
    if op == "%":
        return _c_mod(left, right)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << right if 0 <= right < 64 else None
    if op == ">>":
        return left >> right if 0 <= right < 64 else None
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    return None


# ---------------------------------------------------------------------------
# Trackable names and the environment transfer
# ---------------------------------------------------------------------------


def trackable_names(func: ast.FuncDef, syntax: Optional[FunctionSyntax] = None) -> frozenset[str]:
    """Names whose value only this function's own assignments can change.

    Scalar parameters and locals qualify unless their address is taken
    (``&x``, or ``&x.f`` / ``&x[0]`` through the base) — an escaped local,
    any array (it decays to a pointer at first use), and every global can be
    written through a pointer or by a callee, so binding them would be
    unsound across calls and stores.  A name declared more than once
    (a shadowing inner-scope local, or a local shadowing a parameter) is
    also dropped: the environment is keyed by bare name, so it cannot tell
    the two storage locations apart.  The Deputy instrumenter's region cache
    uses the same set as its callee-immune names.

    ``syntax`` is ``func``'s index record (``program.syntax(name)``); it is
    built here when the caller has no program at hand.
    """
    from ..minic.ctypes import CArray

    syntax = syntax or index_function(func)
    names = {
        param.name
        for param in getattr(func.type.strip(), "params", [])
        if getattr(param, "name", None)
    }
    escaped = set(syntax.address_taken)
    for decl in syntax.declarations:
        if decl.name and not decl.is_typedef:
            if decl.name in names:
                escaped.add(decl.name)  # shadowed: ambiguous by name
            elif isinstance(decl.type.strip(), CArray):
                escaped.add(decl.name)
            else:
                names.add(decl.name)
    return frozenset(names - escaped)


def _has_side_effects(expr: ast.Expr) -> bool:
    """Whether ``expr`` contains an assignment or an increment/decrement."""
    for node in walk(expr):
        if isinstance(node, ast.Assign):
            return True
        if isinstance(node, (ast.Postfix, ast.Unary)) and node.op in ("++", "--"):
            return True
    return False


def transfer_expr(env: ConstEnv, expr: Optional[ast.Expr], safe: frozenset[str]) -> ConstEnv:
    """Apply the assignment effects of ``expr`` to ``env`` (copy-on-write).

    Only assignments and ``++``/``--`` on trackable names move the
    environment; calls and pointer stores cannot touch trackable storage, so
    they are no-ops by construction.  The recursion follows C evaluation
    order, and — crucially for soundness — an assignment that only *may*
    execute (the right operand of ``&&``/``||`` with an unknown left, either
    arm of a ternary with an unknown condition) is joined with the
    not-executed environment rather than applied unconditionally.
    """
    if expr is None:
        return env
    if isinstance(expr, ast.Assign):
        env = transfer_expr(env, expr.value, safe)
        if not isinstance(expr.target, ast.Ident):
            return transfer_expr(env, expr.target, safe)
        name = expr.target.name
        if name not in safe:
            return env
        if expr.op == "=":
            value = eval_const(expr.value, env)
        else:
            current = env.get(name)
            rhs = eval_const(expr.value, env)
            if current is None or rhs is None:
                value = None
            else:
                value = _fold_binary(expr.op.rstrip("="), current, rhs)
        return _bind(env, name, value)
    if isinstance(expr, (ast.Postfix, ast.Unary)) and expr.op in ("++", "--"):
        if isinstance(expr.operand, ast.Ident):
            name = expr.operand.name
            if name not in safe:
                return env
            current = env.get(name)
            delta = 1 if expr.op == "++" else -1
            return _bind(env, name, None if current is None else current + delta)
        return transfer_expr(env, expr.operand, safe)
    if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
        env = transfer_expr(env, expr.left, safe)
        left = eval_const(expr.left, env)
        if left is not None:
            runs = (left != 0) if expr.op == "&&" else (left == 0)
            return transfer_expr(env, expr.right, safe) if runs else env
        return join_envs(env, transfer_expr(env, expr.right, safe))
    if isinstance(expr, ast.Conditional):
        env = transfer_expr(env, expr.cond, safe)
        cond = eval_const(expr.cond, env)
        if cond is not None:
            taken = expr.then if cond else expr.otherwise
            return transfer_expr(env, taken, safe)
        then_env = transfer_expr(env, expr.then, safe)
        else_env = transfer_expr(env, expr.otherwise, safe)
        return join_envs(then_env, else_env)
    for child in iter_child_nodes(expr):
        if isinstance(child, ast.Expr):
            env = transfer_expr(env, child, safe)
    return env


def _bind(env: ConstEnv, name: str, value: Optional[int]) -> ConstEnv:
    out = dict(env)
    if value is None:
        out.pop(name, None)
    else:
        out[name] = value
    return out


def _transfer_element(env: ConstEnv, element, safe: frozenset[str]) -> ConstEnv:
    env = transfer_expr(env, element.expr, safe)
    decl = element.decl
    if (
        decl is not None
        and decl.name in safe
        and decl.init is not None
        and not decl.init.is_list
        and decl.init.expr is element.expr
    ):
        env = _bind(env, decl.name, eval_const(element.expr, env))
    return env


# ---------------------------------------------------------------------------
# Branch-edge refinement
# ---------------------------------------------------------------------------

#: Sorted (name, value) facts one refined edge contributes.
EdgeFacts = tuple[tuple[str, int], ...]


def condition_facts(
    cond: ast.Expr, branch_true: bool, env: Mapping[str, int], safe: frozenset[str]
) -> "EdgeFacts | object":
    """Facts the ``branch_true`` edge of ``cond`` establishes, or INFEASIBLE.

    A condition with embedded side effects contributes nothing: the tested
    value and the value the variable holds after the condition ran can
    differ (``if (x++)``), so neither infeasibility nor bindings are sound
    to derive from the post-transfer environment.
    """
    if _has_side_effects(cond):
        return ()
    value = eval_const(cond, env)
    if value is not None and bool(value) != branch_true:
        return INFEASIBLE
    facts: dict[str, int] = {}
    _truth_bindings(cond, branch_true, env, safe, facts)
    return tuple(sorted(facts.items()))


def _truth_bindings(
    cond: ast.Expr,
    branch_true: bool,
    env: Mapping[str, int],
    safe: frozenset[str],
    facts: dict[str, int],
) -> None:
    if isinstance(cond, ast.Cast):
        _truth_bindings(cond.operand, branch_true, env, safe, facts)
        return
    if isinstance(cond, ast.Comma) and cond.exprs:
        # The truth of a comma chain is the truth of its last expression
        # (earlier positions cannot write trackable names here: conditions
        # with assignments or increments never reach the binding pass).
        _truth_bindings(cond.exprs[-1], branch_true, env, safe, facts)
        return
    if isinstance(cond, ast.Unary) and cond.op == "!":
        _truth_bindings(cond.operand, not branch_true, env, safe, facts)
        return
    if isinstance(cond, ast.Ident):
        # ``if (x)``: the false edge knows x == 0 (true only bounds away
        # from zero, which the lattice cannot represent).
        if not branch_true and cond.name in safe:
            facts[cond.name] = 0
        return
    if isinstance(cond, ast.Binary):
        if cond.op == "&&" and branch_true:
            _truth_bindings(cond.left, True, env, safe, facts)
            _truth_bindings(cond.right, True, env, safe, facts)
            return
        if cond.op == "||" and not branch_true:
            _truth_bindings(cond.left, False, env, safe, facts)
            _truth_bindings(cond.right, False, env, safe, facts)
            return
        # Equality against a foldable value: the agreeing edge binds.
        if (cond.op == "==" and branch_true) or (cond.op == "!=" and not branch_true):
            for ident_side, const_side in ((cond.left, cond.right), (cond.right, cond.left)):
                target = _peel_casts(ident_side)
                if isinstance(target, ast.Ident) and target.name in safe:
                    value = eval_const(const_side, env)
                    if value is not None:
                        facts[target.name] = value
        return


def _peel_casts(expr: ast.Expr) -> ast.Expr:
    while isinstance(expr, ast.Cast):
        expr = expr.operand
    return expr


def _switch_edge_case(
    stmt: ast.Switch, pos: int, edge: Edge
) -> "tuple[bool, Optional[ast.Expr]] | None":
    """Map the ``pos``-th successor of a switch block to its case.

    Returns ``(is_default, case_value_expr)``; ``None`` when the edge is not
    a dispatch edge.  The CFG builder appends one edge per case in source
    order, then a synthesized default edge when the switch has none.
    """
    if edge.label not in ("case", "default"):
        return None
    if pos < len(stmt.cases):
        case = stmt.cases[pos]
        return (case.value is None, case.value)
    return (True, None)  # synthesized default edge


def _refine_edge(
    block: BasicBlock, pos: int, edge: Edge, env: ConstEnv, safe: frozenset[str]
) -> "EdgeFacts | object":
    """Facts (or INFEASIBLE) for one outgoing edge given the block's out-env."""
    element = block.condition_element()
    if element is None or element.expr is None:
        return ()
    cond = element.expr
    stmt = element.stmt
    if isinstance(stmt, ast.Switch):
        return _refine_switch_edge(stmt, pos, edge, cond, env, safe)
    if edge.label == "true":
        return condition_facts(cond, True, env, safe)
    if edge.label == "false":
        return condition_facts(cond, False, env, safe)
    return ()


def _refine_switch_edge(
    stmt: ast.Switch, pos: int, edge: Edge, scrutinee: ast.Expr, env: ConstEnv, safe: frozenset[str]
) -> "EdgeFacts | object":
    mapped = _switch_edge_case(stmt, pos, edge)
    if mapped is None or _has_side_effects(scrutinee):
        return ()
    is_default, case_value = mapped
    value = eval_const(scrutinee, env)
    if is_default:
        if value is not None:
            # The default edge is dead when some (foldable) case matches.
            for case in stmt.cases:
                if case.value is not None and eval_const(case.value, env) == value:
                    return INFEASIBLE
        return ()
    case_const = eval_const(case_value, env)
    if value is not None and case_const is not None and case_const != value:
        return INFEASIBLE
    facts: dict[str, int] = {}
    target = _peel_casts(scrutinee)
    if isinstance(target, ast.Ident) and target.name in safe and case_const is not None:
        facts[target.name] = case_const
    return tuple(sorted(facts.items()))


# ---------------------------------------------------------------------------
# The per-function solve and its cacheable result
# ---------------------------------------------------------------------------


@dataclass
class FunctionConsts:
    """One function's solved constant facts — the engine-cacheable artifact.

    Everything is keyed by the deterministic CFG block numbering (the
    builder is a pure function of the AST), so a result computed once can
    refine any later :func:`build_cfg` of the same function.
    """

    function: str
    block_count: int = 0
    #: Per-block input environments, canonicalized; unreachable blocks absent.
    in_envs: dict[int, FrozenEnv] = field(default_factory=dict)
    #: (block, successor position) -> facts that edge contributes.
    edge_facts: dict[tuple[int, int], EdgeFacts] = field(default_factory=dict)
    #: Edges the solver must never propagate across.
    infeasible: frozenset[tuple[int, int]] = frozenset()

    @property
    def reachable(self) -> frozenset[int]:
        """Blocks some feasible path from the entry reaches."""
        return frozenset(self.in_envs)

    @property
    def prunes(self) -> bool:
        return bool(self.infeasible)


#: How many times each function's constant facts have been solved in this
#: process (per-process, like ``PARSE_COUNTS``); the incremental analyzer's
#: invalidation tests assert re-solves stay confined to edited functions.
CONST_SOLVE_COUNTS: Counter[str] = Counter()


def reset_const_solve_counts() -> None:
    """Reset the per-function constant-solve counter (used by tests)."""
    CONST_SOLVE_COUNTS.clear()


def solve_function_consts(func: ast.FuncDef, cfg: Optional[CFG] = None) -> FunctionConsts:
    """Solve the constant lattice (with edge refinement) for one function."""
    CONST_SOLVE_COUNTS[func.name] += 1
    cfg = cfg or build_cfg(func)
    safe = trackable_names(func)

    def transfer(block: BasicBlock, env: ConstEnv) -> ConstEnv:
        for element in block.elements:
            env = _transfer_element(env, element, safe)
        return env

    def refine(block: BasicBlock, pos: int, edge: Edge, env: ConstEnv):
        outcome = _refine_edge(block, pos, edge, env, safe)
        if outcome is INFEASIBLE:
            return INFEASIBLE
        if not outcome:
            return env
        merged = dict(env)
        merged.update(outcome)
        return merged

    in_envs = solve_forward(cfg, transfer, join_envs, entry_state={}, edge_refine=refine)

    result = FunctionConsts(function=cfg.function, block_count=len(cfg.blocks))
    infeasible: set[tuple[int, int]] = set()
    for block in cfg.blocks:
        env = in_envs[block.index]
        if env is None:
            continue
        result.in_envs[block.index] = freeze_env(env)
        out_env = transfer(block, env)
        for pos, edge in enumerate(block.succs):
            outcome = _refine_edge(block, pos, edge, out_env, safe)
            if outcome is INFEASIBLE:
                infeasible.add((block.index, pos))
            elif outcome:
                result.edge_facts[(block.index, pos)] = outcome
    result.infeasible = frozenset(infeasible)
    return result


class ConstDomain:
    """Constant propagation as an :class:`~repro.dataflow.domains.AbstractDomain`.

    The port of this module onto the pluggable-domain protocol: everything
    above (folding, the evaluation-order-sound transfer, branch refinement,
    switch dispatch) is reused verbatim; this class only adapts the
    signatures.  The lattice is finite-height per function, so ``widen`` is
    plain join and ``narrow`` keeps the fixpoint it already reached.  The
    constant component never reads the product snapshot — it is the *base*
    of the reduction, every other domain folds through it.
    """

    name = "consts"

    def __init__(self, func: ast.FuncDef, cfg: CFG, safe: frozenset[str]) -> None:
        self.safe = safe

    def bottom(self) -> None:
        return None  # ⊥ is the solver's None, never an environment

    def initial(self) -> ConstEnv:
        return {}

    def transfer(self, element, state: ConstEnv, product) -> ConstEnv:
        return _transfer_element(state, element, self.safe)

    def join(self, a: ConstEnv, b: ConstEnv) -> ConstEnv:
        return join_envs(a, b)

    def widen(self, old: ConstEnv, new: ConstEnv) -> ConstEnv:
        return join_envs(old, new)

    def narrow(self, old: ConstEnv, new: ConstEnv) -> ConstEnv:
        return old

    def refine_edge(self, block: BasicBlock, pos: int, edge: Edge, state: ConstEnv, product):
        outcome = _refine_edge(block, pos, edge, state, self.safe)
        if outcome is INFEASIBLE:
            return INFEASIBLE
        if not outcome:
            return state
        merged = dict(state)
        merged.update(outcome)
        return merged

    def edge_facts(
        self, block: BasicBlock, pos: int, edge: Edge, state: ConstEnv
    ) -> "EdgeFacts | object":
        """The recording hook: the facts tuple one edge contributes."""
        return _refine_edge(block, pos, edge, state, self.safe)

    def freeze(self, state: ConstEnv) -> FrozenEnv:
        return freeze_env(state)


def refined_edges(consts: Optional[FunctionConsts]):
    """An ``edge_refine`` hook for *client* lattices: skip infeasible edges.

    This is the reduced-product composition: the constant component is
    already at its fixpoint, so a client solve only needs its pruning
    decisions, not its environments.  Returns ``None`` when there is nothing
    to prune, so clients pay zero overhead on the (common) unrefined CFG.
    """
    if consts is None or not consts.infeasible:
        return None
    infeasible = consts.infeasible

    def refine(block: BasicBlock, pos: int, edge: Edge, state):
        if (block.index, pos) in infeasible:
            return INFEASIBLE
        return state

    return refine


def has_branches(func: ast.FuncDef) -> bool:
    """Whether ``func`` contains any construct edge refinement could prune."""
    return index_function(func).has_branches


def consts_of(
    func: Optional[ast.FuncDef], cache: Optional[dict] = None, cfg: Optional[CFG] = None
) -> Optional[FunctionConsts]:
    """Memoized per-function solve; ``None`` for branchless functions.

    ``cache`` maps function name to a solved :class:`FunctionConsts` (or
    ``None``) — the engine seeds it from its keyed artifact so checkers and
    the summary sweep never re-solve what the artifact already holds.
    """
    if func is None:
        return None
    if cache is not None and func.name in cache:
        return cache[func.name]
    result = solve_function_consts(func, cfg) if has_branches(func) else None
    if cache is not None:
        cache[func.name] = result
    return result


def solve_program_consts(
    program: "Program", functions: Optional[list[str]] = None
) -> dict[str, Optional[FunctionConsts]]:
    """Solve every (or a subset of) function's constant facts.

    Deterministic: results come out in the program's function-definition
    order regardless of how the engine shards the computation, so serial
    and ``--jobs N`` runs persist byte-identical artifacts.
    """
    results: dict[str, Optional[FunctionConsts]] = {}
    for name, func in program.functions_subset(functions):
        results[name] = consts_of(func)
    return results
