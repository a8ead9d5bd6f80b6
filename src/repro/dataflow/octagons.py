"""The octagon (difference-bound) abstract domain: ``±x ± y <= c``.

This is the relational step the ROADMAP names after the interval domain:
intervals store one range per variable, so ``x == y``, ``i < j`` between two
locals, and bounds a function *re-derives* (``limit = n - 1``) refine
nothing once the defining statement is behind.  The octagon component keeps
exactly those facts: binary constraints of the form ``±x ± y <= c`` over
the same trackable names the other components bind, solved as the third
member of the reduced product behind :mod:`repro.dataflow.domains`.

Representation: a *signed variable* is ``(name, sign)`` with sign ``+1`` or
``-1`` and value ``sign * name``; a constraint ``val(a) - val(b) <= c`` is
stored under a canonical key (a constraint and its mirrored coherent twin
``val(bar b) - val(bar a) <= c`` are the same fact).  The environment maps
canonical keys to the tightest known bound; absence means +∞, the whole-env
⊥ is the solver's ``None``.  Unary bounds (``x <= c``) are deliberately
*not* stored — the interval component already tracks them, and each
domain's hooks see the other components' states, so the split costs no
precision a client actually queries.

Closure is shortest-path tightening (Floyd–Warshall over the signed
vertices): ``x - y <= c₁ ∧ y - z <= c₂ ⟹ x - z <= c₁ + c₂``; a negative
self-cycle is a contradiction and marks the deriving edge infeasible.
Like the interval lattice the bound chain is infinite, so loop heads widen
(a constraint whose bound grew — or vanished — is dropped to +∞; the
surviving set shrinks monotonically, which is the termination argument)
and the bounded narrowing sweep afterwards re-adopts only constraints the
widening threw away entirely.

Branch refinement covers all six comparisons: ``<``, ``<=``, ``>``, ``>=``
add the (strictness-adjusted) difference constraint, ``==`` adds both
directions, and ``!=`` — non-convex, so it can add nothing — still *kills*
an edge whose environment entails the equality it denies.

Known imprecision, on purpose: only unit coefficients (``2*x - y <= c`` is
not representable, so ``x = 2 * y`` forgets ``x``), only trackable scalar
names (a bound carried through the heap — ``buf->n`` — never enters the
solved state; the Deputy region cache layers its own rendered-atom
relations on top for exactly that case), and no closure through unary
bounds (``x <= 3 ∧ y >= 5 ⟹ x - y <= -2`` is the interval component's
contradiction to find).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..minic import ast_nodes as ast
from .consts import _has_side_effects, _peel_casts, branch_literals, comparison, eval_const
from .solver import INFEASIBLE

#: A signed variable: ``(name, sign)`` with value ``sign * name``.
SVar = tuple[str, int]

#: A canonical constraint key ``(a, b)`` meaning ``val(a) - val(b) <= c``.
OctKey = tuple[SVar, SVar]

#: The octagon environment: canonical key -> tightest bound (absence = +∞).
OctEnv = dict

#: Canonical hashable form for artifact storage: sorted ``(a, b, c)`` rows.
FrozenOctEnv = tuple[tuple[SVar, SVar, int], ...]


def _bar(sv: SVar) -> SVar:
    return (sv[0], -sv[1])


def _canon(a: SVar, b: SVar) -> OctKey:
    """The canonical key for ``val(a) - val(b) <= c`` (coherence folding)."""
    mirrored = (_bar(b), _bar(a))
    return (a, b) if (a, b) <= mirrored else mirrored


def freeze_octagon_env(env: Mapping[OctKey, int]) -> FrozenOctEnv:
    return tuple(sorted((a, b, c) for (a, b), c in env.items()))


def thaw_octagon_env(frozen: FrozenOctEnv) -> OctEnv:
    return {(a, b): c for a, b, c in frozen}


# ---------------------------------------------------------------------------
# Constraint plumbing
# ---------------------------------------------------------------------------


def oct_bound(env: Mapping[OctKey, int], a: SVar, b: SVar) -> Optional[int]:
    """The known bound on ``val(a) - val(b)``, or ``None`` (+∞)."""
    return env.get(_canon(a, b))


def oct_tighten(env: OctEnv, a: SVar, b: SVar, c: int) -> None:
    """Record ``val(a) - val(b) <= c`` in place, keeping the tighter bound."""
    key = _canon(a, b)
    current = env.get(key)
    if current is None or c < current:
        env[key] = c


def add_octagon_constraint(env: OctEnv, sx: int, x: str, sy: int, y: str, c: int) -> None:
    """Record ``sx*x + sy*y <= c``; same-variable (unary) shapes are skipped."""
    if x == y:
        return  # 0 <= c or 2x <= c: trivial or the interval component's job
    oct_tighten(env, (x, sx), (y, -sy), c)


def entails_octagon(env: Mapping[OctKey, int], sx: int, x: str, sy: int, y: str, c: int) -> bool:
    """Whether a (closed) environment entails ``sx*x + sy*y <= c``."""
    if x == y:
        return False
    bound = oct_bound(env, (x, sx), (y, -sy))
    return bound is not None and bound <= c


def close_octagon(env: Mapping[OctKey, int]) -> Optional[OctEnv]:
    """Shortest-path closure; ``None`` signals a contradiction.

    Floyd–Warshall over the signed vertices occurring in ``env``.  The
    result contains every derivable binary constraint at its tightest
    bound; derived unary/self entries (``(x,+) → (x,−)`` paths) are used
    for contradiction detection and intermediate tightening but are not
    stored — intervals own the unary bounds.
    """
    if not env:
        return {}
    verts: set[SVar] = set()
    for a, b in env:
        verts.update((a, _bar(a), b, _bar(b)))
    order = sorted(verts)
    dist: dict[OctKey, int] = {}
    for (a, b), c in env.items():
        for key in ((a, b), (_bar(b), _bar(a))):
            current = dist.get(key)
            if current is None or c < current:
                dist[key] = c
    for k in order:
        for i in order:
            first = dist.get((i, k))
            if first is None:
                continue
            for j in order:
                second = dist.get((k, j))
                if second is None:
                    continue
                through = first + second
                current = dist.get((i, j))
                if current is None or through < current:
                    dist[(i, j)] = through
    closed: OctEnv = {}
    for (a, b), c in dist.items():
        if a == b:
            if c < 0:
                return None
            continue
        if a == _bar(b):
            continue  # unary channel: checked for contradiction via a == b
        key = _canon(a, b)
        current = closed.get(key)
        if current is None or c < current:
            closed[key] = c
    return closed


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def join_octagon_envs(a: OctEnv, b: OctEnv) -> OctEnv:
    """Env join: constraints present in both, at the weaker bound.

    The pointwise max of two closed environments is closed, so closure
    performed on branch edges survives the merge.
    """
    if a == b:
        return a
    out: OctEnv = {}
    for key, bound in a.items():
        other = b.get(key)
        if other is not None:
            out[key] = bound if bound >= other else other
    return out


def widen_octagon_envs(old: OctEnv, new: OctEnv) -> OctEnv:
    """Env widening: a constraint whose bound grew (or vanished) drops to +∞.

    Termination: the result is always a subset of ``old`` with ``old``'s
    bounds, so the constraint set at a widened block input shrinks
    monotonically and every chain through this operator is finite.
    """
    out: OctEnv = {}
    for key, bound in old.items():
        other = new.get(key)
        if other is not None and other <= bound:
            out[key] = bound
    return out


def narrow_octagon_envs(old: OctEnv, new: OctEnv) -> OctEnv:
    """Env narrowing: re-adopt only constraints widening threw to +∞.

    A bound present in ``old`` is never moved (that could oscillate);
    constraints absent from ``old`` are adopted from the recomputed state,
    mirroring the interval rule, so bounded decreasing rounds terminate and
    stay above the least fixpoint.
    """
    out: OctEnv = {}
    for key, bound in new.items():
        previous = old.get(key)
        out[key] = previous if previous is not None else bound
    return out


def forget_octagon(env: OctEnv, name: str) -> OctEnv:
    """Drop every constraint mentioning ``name`` (the variable was written)."""
    if not env:
        return env
    return {key: c for key, c in env.items() if key[0][0] != name and key[1][0] != name}


def shift_octagon(env: OctEnv, name: str, delta: int) -> OctEnv:
    """The effect of ``name = name + delta`` on every constraint.

    Substituting ``x_old = x_new - delta`` into ``val(a) - val(b) <= c``
    adjusts the bound by the (signed) coefficient ``x`` carries in the
    constraint; a variable occurs in at most one side of a canonical key.
    """
    if not env or delta == 0:
        return env
    out: OctEnv = {}
    for (a, b), c in env.items():
        if a[0] == name:
            c = c + a[1] * delta
        elif b[0] == name:
            c = c - b[1] * delta
        out[(a, b)] = c
    return out


def assign_octagon(env: OctEnv, x: str, sign: int, y: str, offset: int) -> OctEnv:
    """The effect of ``x = sign*y + offset`` (both names trackable)."""
    out = forget_octagon(env, x)
    out = dict(out)
    add_octagon_constraint(out, +1, x, -sign, y, offset)
    add_octagon_constraint(out, -1, x, sign, y, -offset)
    return out


# ---------------------------------------------------------------------------
# Linear-form extraction and the assignment effect
# ---------------------------------------------------------------------------


def linear_of(
    expr: Optional[ast.Expr], consts: Mapping[str, int], safe: frozenset[str]
) -> Optional[tuple[int, str, int]]:
    """Decompose ``expr`` as ``sign*name + offset`` over a trackable name.

    Returns ``(sign, name, offset)`` or ``None`` when the expression is not
    a unit-coefficient linear form (the module's named imprecision: ``2*x``
    and friends are not octagon material).  Pure constants also return
    ``None`` — callers fold those through :func:`eval_const` first.
    """
    if expr is None:
        return None
    expr = _peel_casts(expr)
    if isinstance(expr, ast.Ident):
        if expr.name in safe and expr.name not in consts:
            return (1, expr.name, 0)
        return None
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = linear_of(expr.operand, consts, safe)
        if inner is None:
            return None
        sign, name, offset = inner
        return (-sign, name, -offset)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        left_const = eval_const(expr.left, consts)
        right_const = eval_const(expr.right, consts)
        if right_const is not None:
            inner = linear_of(expr.left, consts, safe)
            if inner is None:
                return None
            sign, name, offset = inner
            delta = right_const if expr.op == "+" else -right_const
            return (sign, name, offset + delta)
        if left_const is not None:
            inner = linear_of(expr.right, consts, safe)
            if inner is None:
                return None
            sign, name, offset = inner
            if expr.op == "-":
                sign, offset = -sign, -offset
            return (sign, name, left_const + offset)
    return None


def _bind_octagon(
    env: OctEnv, name: str, value: ast.Expr, safe: frozenset[str], consts: Mapping[str, int]
) -> OctEnv:
    """The effect of ``name = value`` on the relational state."""
    lin = linear_of(value, consts, safe)
    if lin is None:
        return forget_octagon(env, name)
    sign, source, offset = lin
    if source == name:
        if sign == 1:
            return shift_octagon(env, name, offset)
        return forget_octagon(env, name)  # x = -x + c: occurrence flips sign
    return assign_octagon(env, name, sign, source, offset)


# ---------------------------------------------------------------------------
# Branch-edge refinement
# ---------------------------------------------------------------------------


def _octagon_literal(
    literal: ast.Expr,
    truth: bool,
    env: Mapping[OctKey, int],
    consts: Mapping[str, int],
    safe: frozenset[str],
    pending: OctEnv,
) -> bool:
    """Collect the constraints one branch literal adds; True means infeasible."""
    normalized = comparison(literal, truth)
    if normalized is None:
        return False
    op, left, right = normalized
    left = linear_of(left, consts, safe)
    right = linear_of(right, consts, safe)
    if left is None or right is None:
        return False
    s1, x, o1 = left
    s2, y, o2 = right
    if op in ("<", "<="):
        strict = 1 if op == "<" else 0
        c = o2 - o1 - strict
        if x == y and s1 == s2:
            return c < 0  # e.g. i < i: constant-false, infeasible
        add_octagon_constraint(pending, s1, x, -s2, y, c)
        return False
    if op == "==":
        if x == y and s1 == s2:
            return o1 != o2
        add_octagon_constraint(pending, s1, x, -s2, y, o2 - o1)
        add_octagon_constraint(pending, -s1, x, s2, y, o1 - o2)
        return False
    # op == "!=": non-convex, so nothing can be added — but an environment
    # that entails the denied equality makes this edge dead.
    if x == y and s1 == s2:
        return o1 == o2
    if not entails_octagon(env, s1, x, -s2, y, o2 - o1):
        return False
    return entails_octagon(env, -s1, x, s2, y, o1 - o2)


def octagon_condition_facts(
    cond: ast.Expr,
    branch_true: bool,
    env: Mapping[OctKey, int],
    consts: Mapping[str, int],
    safe: frozenset[str],
) -> "OctEnv | object":
    """The refined (closed) environment ``branch_true`` of ``cond`` yields.

    Returns the input ``env`` unchanged when the condition contributes
    nothing, a new closed environment when it does, or :data:`INFEASIBLE`
    when the added constraints contradict the environment (a negative
    cycle after closure) or the comparison is self-contradictory.
    Side-effecting conditions contribute nothing, like the other lattices.
    """
    if _has_side_effects(cond):
        return env
    return _octagon_condition_facts(cond, branch_true, env, consts, safe)


def _octagon_condition_facts(
    cond: ast.Expr,
    branch_true: bool,
    env: Mapping[OctKey, int],
    consts: Mapping[str, int],
    safe: frozenset[str],
) -> "OctEnv | object":
    """:func:`octagon_condition_facts` for a condition without side effects."""
    pending: OctEnv = {}
    for literal, truth in branch_literals(cond, branch_true):
        if _octagon_literal(literal, truth, env, consts, safe, pending):
            return INFEASIBLE
    if not pending:
        return env
    merged = dict(env)
    for key, c in pending.items():
        current = merged.get(key)
        if current is None or c < current:
            merged[key] = c
    closed = close_octagon(merged)
    if closed is None:
        return INFEASIBLE
    return closed


# ---------------------------------------------------------------------------
# The domain plug-in
# ---------------------------------------------------------------------------


class OctagonDomain:
    """The relational component of the reduced product (``name = "octagons"``).

    Implements the :class:`repro.dataflow.domains.AbstractDomain` protocol.
    The ``product`` handed to each hook carries the constant component's
    environment as it stands at that point, used to fold offsets
    (``limit = n - K`` with ``K`` a known constant) and to drop names the
    constant lattice already pins to a point — a singleton needs no
    relational row, and excluding it keeps closure matrices small.
    """

    name = "octagons"

    def __init__(self, func: ast.FuncDef, cfg, safe: frozenset[str]) -> None:
        self.safe = safe

    def bottom(self) -> None:
        return None  # ⊥ is the solver's None, never an environment

    def initial(self) -> OctEnv:
        return {}

    def _consts(self, product: Mapping[str, object]) -> Mapping[str, int]:
        return product.get("consts") or {}

    def assign(self, state: OctEnv, name: str, op: str, value: ast.Expr, product) -> OctEnv:
        consts = self._consts(product)
        if op == "=":
            return _bind_octagon(state, name, value, self.safe, consts)
        if op in ("+=", "-="):
            delta = eval_const(value, consts)
            if delta is not None:
                return shift_octagon(state, name, delta if op == "+=" else -delta)
        return forget_octagon(state, name)

    def step(self, state: OctEnv, name: str, delta: int, product) -> OctEnv:
        return shift_octagon(state, name, delta)

    def join(self, a: OctEnv, b: OctEnv) -> OctEnv:
        return join_octagon_envs(a, b)

    def widen(self, old: OctEnv, new: OctEnv) -> OctEnv:
        return widen_octagon_envs(old, new)

    def narrow(self, old: OctEnv, new: OctEnv) -> OctEnv:
        return narrow_octagon_envs(old, new)

    def refine_edge(self, block, pos: int, edge, state: OctEnv, product):
        branch = block.branch(edge)
        if branch is None or branch[1] is None:
            return state  # switch dispatch stays the constant component's job
        element, truth = branch
        return _octagon_condition_facts(
            element.expr, truth, state, self._consts(product), self.safe
        )

    def freeze(self, state: OctEnv) -> FrozenOctEnv:
        closed = close_octagon(state)
        return freeze_octagon_env(state if closed is None else closed)
