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

The transfer itself lives in :class:`repro.dataflow.domains.ProductWalk`:
one walk of C evaluation order per CFG element for the whole product,
which calls :class:`ConstDomain`'s ``assign`` and ``step`` hooks at each
write of a trackable name.  This module keeps those atomic effects and the
folding they use.

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
Every branch refinement reads a condition through
:func:`branch_literals` and :func:`comparison`.

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
from typing import Iterator, Mapping, Optional

from ..minic import ast_nodes as ast
from ..minic.syntax import FunctionSyntax, index_function
from .cfg import CFG, BasicBlock, Edge
from .cfg import expr_has_side_effects as _has_side_effects
from .solver import INFEASIBLE

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
# Trackable names
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


def _bind(env: ConstEnv, name: str, value: Optional[int]) -> ConstEnv:
    out = dict(env)
    if value is None:
        out.pop(name, None)
    else:
        out[name] = value
    return out


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
    return _condition_facts(cond, branch_true, env, safe)


def _condition_facts(
    cond: ast.Expr, branch_true: bool, env: Mapping[str, int], safe: frozenset[str]
) -> "EdgeFacts | object":
    """:func:`condition_facts` for a condition known to have no side effects."""
    value = eval_const(cond, env)
    if value is not None and bool(value) != branch_true:
        return INFEASIBLE
    facts: dict[str, int] = {}
    for literal, truth in branch_literals(cond, branch_true):
        if isinstance(literal, ast.Ident):
            # ``if (x)``: the false edge knows x == 0 (true only bounds away
            # from zero, which the lattice cannot represent).
            if not truth and literal.name in safe:
                facts[literal.name] = 0
            continue
        # Equality against a foldable value: the agreeing edge binds.
        normalized = comparison(literal, truth)
        if normalized is None or normalized[0] != "==":
            continue
        _, left, right = normalized
        for ident_side, const_side in ((left, right), (right, left)):
            target = _peel_casts(ident_side)
            if isinstance(target, ast.Ident) and target.name in safe:
                folded = eval_const(const_side, env)
                if folded is not None:
                    facts[target.name] = folded
    return tuple(sorted(facts.items()))


#: Each comparison operator and the one that holds on its false edge.
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def branch_literals(cond: ast.Expr, truth: bool) -> Iterator[tuple[ast.Expr, bool]]:
    """The ``(literal, truth)`` pairs the ``truth`` edge of ``cond`` asserts.

    Casts are peeled, a comma chain asserts its last operand (its earlier
    operands write nothing: conditions with side effects never reach a
    refinement), ``!`` flips the truth, and ``&&`` on the true edge or
    ``||`` on the false edge asserts both operands, left first.  Every
    branch refinement (the three domains and the Deputy region cache) reads
    its facts from these literals; each keeps only how it reads one.
    """
    while True:
        if isinstance(cond, ast.Cast):
            cond = cond.operand
        elif isinstance(cond, ast.Comma) and cond.exprs:
            cond = cond.exprs[-1]
        elif isinstance(cond, ast.Unary) and cond.op == "!":
            cond, truth = cond.operand, not truth
        else:
            break
    if isinstance(cond, ast.Binary) and cond.op == ("&&" if truth else "||"):
        yield from branch_literals(cond.left, truth)
        yield from branch_literals(cond.right, truth)
    else:
        yield cond, truth


def comparison(literal: ast.Expr, truth: bool) -> "tuple[str, ast.Expr, ast.Expr] | None":
    """``(op, left, right)`` for a comparison literal asserted with ``truth``.

    ``op`` is one of ``<``, ``<=``, ``==`` and ``!=``: the false edge negates
    the operator, and ``>``/``>=`` become ``<``/``<=`` with the operands
    swapped.  ``None`` when ``literal`` is not a comparison.
    """
    if not isinstance(literal, ast.Binary) or literal.op not in _NEGATED:
        return None
    op = literal.op if truth else _NEGATED[literal.op]
    if op == ">":
        return "<", literal.right, literal.left
    if op == ">=":
        return "<=", literal.right, literal.left
    return op, literal.left, literal.right


def _peel_casts(expr: ast.Expr) -> ast.Expr:
    while isinstance(expr, ast.Cast):
        expr = expr.operand
    return expr


def _refine_edge(
    block: BasicBlock, pos: int, edge: Edge, env: ConstEnv, safe: frozenset[str]
) -> "EdgeFacts | object":
    """Facts (or INFEASIBLE) for one outgoing edge given the block's out-env."""
    branch = block.branch(edge)
    if branch is None:
        return ()
    element, truth = branch
    if isinstance(element.stmt, ast.Switch):
        return _refine_switch_edge(element.stmt, pos, edge, element.expr, env, safe)
    if truth is None:
        return ()
    return _condition_facts(element.expr, truth, env, safe)


def _refine_switch_edge(
    stmt: ast.Switch, pos: int, edge: Edge, scrutinee: ast.Expr, env: ConstEnv, safe: frozenset[str]
) -> "EdgeFacts | object":
    """Facts (or INFEASIBLE) for the ``pos``-th dispatch edge of a switch.

    The CFG builder appends one edge per case in source order, then a
    synthesized default edge when the switch has none.
    """
    if edge.label not in ("case", "default"):
        return ()
    case_value = stmt.cases[pos].value if pos < len(stmt.cases) else None
    value = eval_const(scrutinee, env)
    if case_value is None:  # a default edge, written or synthesized
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


class ConstDomain:
    """Constant propagation as an :class:`~repro.dataflow.domains.AbstractDomain`.

    The port of this module onto the pluggable-domain protocol: everything
    above (folding, branch refinement, switch dispatch) is reused verbatim;
    ``assign`` folds a right-hand side and ``step`` moves a known value.
    The lattice is finite-height per function, so ``widen`` is plain join
    and ``narrow`` keeps the fixpoint it already reached.  The constant
    component never reads ``product`` — it is the *base* of the reduction,
    every other domain folds through it.
    """

    name = "consts"

    def __init__(self, func: ast.FuncDef, cfg: CFG, safe: frozenset[str]) -> None:
        self.safe = safe

    def bottom(self) -> None:
        return None  # ⊥ is the solver's None, never an environment

    def initial(self) -> ConstEnv:
        return {}

    def assign(self, state: ConstEnv, name: str, op: str, value: ast.Expr, product) -> ConstEnv:
        folded = eval_const(value, state)
        if op != "=" and folded is not None:
            current = state.get(name)
            folded = None if current is None else _fold_binary(op.rstrip("="), current, folded)
        return _bind(state, name, folded)

    def step(self, state: ConstEnv, name: str, delta: int, product) -> ConstEnv:
        current = state.get(name)
        return _bind(state, name, None if current is None else current + delta)

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
