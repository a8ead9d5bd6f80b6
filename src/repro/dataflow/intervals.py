"""The interval abstract domain: ⊥ / [lo, hi] with ±∞ / ⊤ per variable.

This is the precision jump the ROADMAP names after the constant lattice: a
per-function *range* analysis over the same trackable names constant
propagation binds (non-address-taken scalar locals and parameters), run as a
reduced product with the constant component behind the
:mod:`repro.dataflow.domains` protocol.  Where constants can only say
``i = 3``, intervals say ``i ∈ [0, +∞)`` at a loop head — which is exactly
the lower-bound half of the proof that discharges the canonical
``for (i = 0; i < n; i++) buf->a[i]`` Deputy check.

Representation: an interval is a ``(lo, hi)`` pair of ints where ``None``
stands for the missing bound (−∞ / +∞).  An *environment* maps trackable
names to intervals; absence means ⊤ (any value), the whole-env ⊥ is the
solver's ``None``.  The lattice has infinite ascending chains
(``[0,0] ⊑ [0,1] ⊑ …``), so the fixpoint iteration **widens**: once a
block's input has been joined a few times, unstable bounds jump straight to
±∞ (:func:`widen_interval`), and a bounded narrowing sweep afterwards
recovers bounds the widening overshot (see ``solve_function_facts``).

Branch refinement is *relational in effect*: the true edge of ``x < n``
meets ``x`` with ``(-∞, hi(n) − 1]`` and ``n`` with ``[lo(x) + 1, +∞)``,
``x == y`` meets both sides with each other, and ``&&`` / ``||`` / ``!`` /
casts distribute exactly like the constant lattice's refinement.  A meet
that comes back empty marks the edge infeasible — interval-only pruning the
constant component cannot see (``if (i < 0)`` inside a ``for (i = 0; …)``).

Known imprecision, on purpose: division, shifts and mixed-sign products
return ⊤; no symbolic relations are *stored* (``x < n`` with both unknown
refines nothing here — the Deputy optimizer layers its own symbolic guard
facts on top); globals and address-taken locals stay untracked.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..minic import ast_nodes as ast
from .consts import _has_side_effects, _peel_casts, branch_literals, comparison, eval_const
from .solver import INFEASIBLE

#: An interval: (lo, hi); ``None`` bounds are −∞ / +∞.  ⊤ is (None, None),
#: but environments never store ⊤ — absence means ⊤, mirroring the constant
#: environment convention, so empty dicts stay the common cheap case.
Interval = tuple[Optional[int], Optional[int]]

#: An interval environment: trackable name -> interval.
IntervalEnv = dict

#: Canonical (hashable, deterministic) form for artifact storage.
FrozenIntervalEnv = tuple[tuple[str, Interval], ...]

TOP: Interval = (None, None)


def freeze_interval_env(env: Mapping[str, Interval]) -> FrozenIntervalEnv:
    return tuple(sorted(env.items()))


def is_top(interval: Interval) -> bool:
    return interval[0] is None and interval[1] is None


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def join_interval(a: Interval, b: Interval) -> Interval:
    """The convex hull of two intervals."""
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


def meet_interval(a: Interval, b: Interval) -> Optional[Interval]:
    """The intersection, or ``None`` when it is empty (contradiction)."""
    lo = b[0] if a[0] is None else (a[0] if b[0] is None else max(a[0], b[0]))
    hi = b[1] if a[1] is None else (a[1] if b[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def widen_interval(old: Interval, new: Interval) -> Interval:
    """Classic interval widening: unstable bounds jump to ±∞."""
    lo = old[0] if (old[0] is not None and new[0] is not None and new[0] >= old[0]) else None
    hi = old[1] if (old[1] is not None and new[1] is not None and new[1] <= old[1]) else None
    return (lo, hi)


def join_interval_envs(a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
    """Env join: hull per name; a name absent on either side goes to ⊤."""
    if a == b:
        return a
    out: IntervalEnv = {}
    for name, interval in a.items():
        other = b.get(name)
        if other is None:
            continue
        joined = join_interval(interval, other)
        if not is_top(joined):
            out[name] = joined
    return out


def widen_interval_envs(old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
    """Env widening: per-name widening; unstable names drop to ⊤.

    Termination: each surviving name's bounds can only move to ``None``
    (never back), and the name set only shrinks — so every chain through
    this operator is finite regardless of the transfer function.
    """
    out: IntervalEnv = {}
    for name, interval in old.items():
        other = new.get(name)
        if other is None:
            continue
        widened = widen_interval(interval, other)
        if not is_top(widened):
            out[name] = widened
    return out


def narrow_interval_envs(old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
    """Env narrowing: refill only bounds the widening threw to ±∞.

    Standard interval narrowing — a finite bound established by widening is
    never *changed*, only missing (infinite) bounds are adopted from the
    recomputed state, so bounded rounds of decreasing iteration stay above
    the least fixpoint and terminate.
    """
    out: IntervalEnv = {}
    for name, interval in new.items():
        previous = old.get(name, TOP)
        lo = previous[0] if previous[0] is not None else interval[0]
        hi = previous[1] if previous[1] is not None else interval[1]
        if lo is not None and hi is not None and lo > hi:
            lo, hi = previous
        if lo is not None or hi is not None:
            out[name] = (lo, hi)
    return out


# ---------------------------------------------------------------------------
# Interval arithmetic and expression evaluation
# ---------------------------------------------------------------------------


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _neg(a: Interval) -> Interval:
    return (None if a[1] is None else -a[1], None if a[0] is None else -a[0])


def _sub(a: Interval, b: Interval) -> Interval:
    return _add(a, _neg(b))


def _mul(a: Interval, b: Interval) -> Interval:
    if None in a or None in b:
        return TOP
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(products), max(products))


def _truth(a: Interval) -> Optional[bool]:
    """The boolean an interval decides, or ``None`` when it spans both."""
    if a[0] is not None and a[0] > 0:
        return True
    if a[1] is not None and a[1] < 0:
        return True
    if a == (0, 0):
        return False
    if a[0] is not None and a[1] is not None and not (a[0] <= 0 <= a[1]):
        return True
    return None


def _compare(op: str, a: Interval, b: Interval) -> Interval:
    """Evaluate a comparison over intervals: [0,0], [1,1], or [0,1]."""
    if op in (">", ">="):
        return _compare("<" if op == ">" else "<=", b, a)
    if op == "<":
        if a[1] is not None and b[0] is not None and a[1] < b[0]:
            return (1, 1)
        if a[0] is not None and b[1] is not None and a[0] >= b[1]:
            return (0, 0)
        return (0, 1)
    if op == "<=":
        if a[1] is not None and b[0] is not None and a[1] <= b[0]:
            return (1, 1)
        if a[0] is not None and b[1] is not None and a[0] > b[1]:
            return (0, 0)
        return (0, 1)
    if op == "==":
        if a[0] is not None and a == b and a[0] == a[1]:
            return (1, 1)
        if meet_interval(a, b) is None:
            return (0, 0)
        return (0, 1)
    if op == "!=":
        inner = _compare("==", a, b)
        if inner == (1, 1):
            return (0, 0)
        if inner == (0, 0):
            return (1, 1)
        return (0, 1)
    return TOP


def eval_interval(
    expr: Optional[ast.Expr],
    env: Mapping[str, Interval],
    consts: Mapping[str, int],
) -> Interval:
    """Bound ``expr`` under ``env``, consulting ``consts`` as the reduction.

    The constant component is the stronger fact where it exists — a binding
    ``x = 3`` is the singleton ``[3, 3]`` — so evaluation first tries the
    constant fold of the whole expression, then descends structurally with
    per-name interval lookups falling back to the constant binding.
    Anything side-effecting (assignment, ``++``, calls) and every operator
    without a sound interval rule returns ⊤.
    """
    if expr is None:
        return TOP
    folded = eval_const(expr, consts)
    if folded is not None:
        return (folded, folded)
    if isinstance(expr, ast.Ident):
        interval = env.get(expr.name, TOP)
        constant = consts.get(expr.name)
        if constant is not None:
            met = meet_interval(interval, (constant, constant))
            return met if met is not None else (constant, constant)
        return interval
    if isinstance(expr, ast.Cast):
        return eval_interval(expr.operand, env, consts)
    if isinstance(expr, ast.Unary):
        if expr.op == "-":
            return _neg(eval_interval(expr.operand, env, consts))
        if expr.op == "!":
            truth = _truth(eval_interval(expr.operand, env, consts))
            if truth is None:
                return (0, 1)
            return (0, 0) if truth else (1, 1)
        return TOP
    if isinstance(expr, ast.Binary):
        if expr.op in ("&&", "||"):
            left = _truth(eval_interval(expr.left, env, consts))
            right = _truth(eval_interval(expr.right, env, consts))
            if expr.op == "&&":
                if left is False or right is False:
                    return (0, 0)
                if left is True and right is True:
                    return (1, 1)
            else:
                if left is True or right is True:
                    return (1, 1)
                if left is False and right is False:
                    return (0, 0)
            return (0, 1)
        left = eval_interval(expr.left, env, consts)
        right = eval_interval(expr.right, env, consts)
        if expr.op == "+":
            return _add(left, right)
        if expr.op == "-":
            return _sub(left, right)
        if expr.op == "*":
            return _mul(left, right)
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return _compare(expr.op, left, right)
        return TOP
    if isinstance(expr, ast.Conditional):
        truth = _truth(eval_interval(expr.cond, env, consts))
        if truth is True:
            return eval_interval(expr.then, env, consts)
        if truth is False:
            return eval_interval(expr.otherwise, env, consts)
        return join_interval(
            eval_interval(expr.then, env, consts),
            eval_interval(expr.otherwise, env, consts),
        )
    if isinstance(expr, ast.Comma):
        if not expr.exprs or _has_side_effects(expr):
            return TOP
        return eval_interval(expr.exprs[-1], env, consts)
    return TOP


# ---------------------------------------------------------------------------
# Branch-edge refinement
# ---------------------------------------------------------------------------


def interval_condition_facts(
    cond: ast.Expr,
    branch_true: bool,
    env: Mapping[str, Interval],
    consts: Mapping[str, int],
    safe: frozenset[str],
) -> "dict[str, Interval] | object":
    """Interval facts the ``branch_true`` edge of ``cond`` establishes.

    Returns a dict of name -> refined interval (to be *met* with the
    environment), or :data:`INFEASIBLE` when the condition's interval
    valuation contradicts the branch or a refinement meet comes back empty.
    Side-effecting conditions contribute nothing, same as the constant
    lattice.
    """
    if _has_side_effects(cond):
        return {}
    return _interval_condition_facts(cond, branch_true, env, consts, safe)


def _interval_condition_facts(
    cond: ast.Expr,
    branch_true: bool,
    env: Mapping[str, Interval],
    consts: Mapping[str, int],
    safe: frozenset[str],
) -> "dict[str, Interval] | object":
    """:func:`interval_condition_facts` for a condition without side effects."""
    truth = _truth(eval_interval(cond, env, consts))
    if truth is not None and truth != branch_true:
        return INFEASIBLE
    facts: dict[str, Interval] = {}
    for literal, holds in branch_literals(cond, branch_true):
        if _interval_literal(literal, holds, env, consts, safe, facts):
            return INFEASIBLE
    return facts


def _refine_name(
    name: str,
    bound: Interval,
    env: Mapping[str, Interval],
    consts: Mapping[str, int],
    facts: dict[str, Interval],
) -> bool:
    """Meet ``name`` with ``bound``; True signals an empty (infeasible) meet."""
    current = facts.get(name, env.get(name, TOP))
    constant = consts.get(name)
    if constant is not None:
        narrowed = meet_interval(current, (constant, constant))
        if narrowed is None:
            return True
        current = narrowed
    met = meet_interval(current, bound)
    if met is None:
        return True
    if not is_top(met):
        facts[name] = met
    return False


def _interval_literal(
    literal: ast.Expr,
    truth: bool,
    env: Mapping[str, Interval],
    consts: Mapping[str, int],
    safe: frozenset[str],
    facts: dict[str, Interval],
) -> bool:
    """Meet ``facts`` with one branch literal; True means infeasible."""
    if isinstance(literal, ast.Ident):
        if not truth and literal.name in safe:
            return _refine_name(literal.name, (0, 0), env, consts, facts)
        return False
    normalized = comparison(literal, truth)
    if normalized is None or normalized[0] == "!=":
        return False  # "anything but one value" is not convex
    op, left, right = normalized
    left, right = _peel_casts(left), _peel_casts(right)
    left_iv = eval_interval(left, env, consts)
    right_iv = eval_interval(right, env, consts)
    if op == "==":
        for target, other in ((left, right_iv), (right, left_iv)):
            if isinstance(target, ast.Ident) and target.name in safe:
                if _refine_name(target.name, other, env, consts, facts):
                    return True
        return False
    # Now  left OP right  with OP in {<, <=}.
    strict = 1 if op == "<" else 0
    if isinstance(left, ast.Ident) and left.name in safe:
        hi = None if right_iv[1] is None else right_iv[1] - strict
        if hi is not None and _refine_name(left.name, (None, hi), env, consts, facts):
            return True
    if isinstance(right, ast.Ident) and right.name in safe:
        lo = None if left_iv[0] is None else left_iv[0] + strict
        if lo is not None and _refine_name(right.name, (lo, None), env, consts, facts):
            return True
    return False


# ---------------------------------------------------------------------------
# The domain plug-in
# ---------------------------------------------------------------------------


def _bind_interval(env: IntervalEnv, name: str, value: Interval) -> IntervalEnv:
    out = dict(env)
    if is_top(value):
        out.pop(name, None)
    else:
        out[name] = value
    return out


class IntervalDomain:
    """The interval component of the reduced product (``name = "intervals"``).

    Implements the :class:`repro.dataflow.domains.AbstractDomain` protocol.
    The ``product`` handed to each hook carries the constant component's
    environment as it stands at that point, which every fold consults
    first — the reduction that makes ``i = CONST + 1`` a singleton interval
    even when the interval env never tracked the operands.
    """

    name = "intervals"

    def __init__(self, func: ast.FuncDef, cfg, safe: frozenset[str]) -> None:
        self.safe = safe

    def bottom(self) -> None:
        return None  # ⊥ is the solver's None, never an environment

    def initial(self) -> IntervalEnv:
        return {}

    def _consts(self, product: Mapping[str, object]) -> Mapping[str, int]:
        return product.get("consts") or {}

    def assign(
        self, state: IntervalEnv, name: str, op: str, value: ast.Expr, product
    ) -> IntervalEnv:
        consts = self._consts(product)
        if op == "=":
            bound = eval_interval(value, state, consts)
        elif op in ("+=", "-="):
            current = state.get(name, TOP)
            rhs = eval_interval(value, state, consts)
            bound = _add(current, rhs) if op == "+=" else _sub(current, rhs)
        else:
            bound = TOP
        return _bind_interval(state, name, bound)

    def step(self, state: IntervalEnv, name: str, delta: int, product) -> IntervalEnv:
        return _bind_interval(state, name, _add(state.get(name, TOP), (delta, delta)))

    def join(self, a: IntervalEnv, b: IntervalEnv) -> IntervalEnv:
        return join_interval_envs(a, b)

    def widen(self, old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
        return widen_interval_envs(old, new)

    def narrow(self, old: IntervalEnv, new: IntervalEnv) -> IntervalEnv:
        return narrow_interval_envs(old, new)

    def refine_edge(self, block, pos: int, edge, state: IntervalEnv, product):
        branch = block.branch(edge)
        if branch is None or branch[1] is None:
            return state  # switch dispatch stays the constant component's job
        element, truth = branch
        facts = _interval_condition_facts(
            element.expr, truth, state, self._consts(product), self.safe
        )
        if facts is INFEASIBLE:
            return INFEASIBLE
        if not facts:
            return state
        merged = dict(state)
        merged.update(facts)
        return merged

    def freeze(self, state: IntervalEnv) -> FrozenIntervalEnv:
        return freeze_interval_env(state)
