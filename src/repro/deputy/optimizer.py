"""Redundant run-time check elimination and region constant facts.

Deputy inserts a run-time check wherever it cannot prove an access safe, but
straight-line code frequently checks the same pointer expression repeatedly
(``p->next`` three statements in a row).  The optimizer tracks which checks
have already been emitted in the current straight-line region and drops exact
duplicates, provided nothing that could invalidate them (a write to one of the
mentioned variables, or an arbitrary function call) has happened in between.

The same region cache also carries **constant facts** from the
condition-aware dataflow layer (:mod:`repro.dataflow.consts`): the known
integer values of the function's callee-immune names, updated at every
assignment and refined on branch arms (inside ``if (k == 2)`` the then-arm
knows ``k = 2``).  The static checker consults them through :meth:`fold` —
an index obligation whose index *and* bound both fold to constants with
``0 <= k < n`` is discharged statically instead of emitting
``__deputy_check_index(k, n)``.  Constant tracking stays active when the
elimination knob is off: it is checker precision, not an optimization, so
the A1 ablation (Table 1 with the optimizer disabled) measures elision
alone.

This is deliberately conservative — dropping a check is only sound when the
checked expression provably still has the checked property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow.consts import (
    ConstDomain,
    _condition_facts,
    _has_side_effects,
    branch_literals,
    comparison,
    eval_const,
)
from ..dataflow.domains import ProductWalk
from ..dataflow.intervals import (
    IntervalDomain,
    _interval_condition_facts,
    eval_interval,
    join_interval,
)
from ..dataflow.octagons import (
    add_octagon_constraint,
    close_octagon,
    entails_octagon,
    join_octagon_envs,
    oct_tighten,
)
from ..dataflow.solver import INFEASIBLE
from ..minic import ast_nodes as ast
from ..minic.pretty import render_expression
from ..minic.visitor import iter_child_nodes, walk


@dataclass
class CheckCache:
    """Tracks run-time checks already emitted in the current region.

    ``safe_names`` is the set of variables a function call provably cannot
    write: the enclosing function's non-address-taken scalar locals and
    parameters.  Globals and address-taken locals are *not* in the set — a
    callee can store to them — so a cached check mentioning one of them
    must not survive :meth:`invalidate_memory`.
    """

    enabled: bool = True
    safe_names: frozenset[str] | None = None
    _seen: dict[str, set[str]] = field(default_factory=dict)
    #: Keys whose check expression reads memory (a deref, subscript, or
    #: ``->``): their validity depends on the heap, never on names alone.
    _heap_reads: set[str] = field(default_factory=set)
    #: Known constant values of callee-immune names in this region.  Updated
    #: regardless of ``enabled`` (constant facts feed the *checker*, not the
    #: elision pass), and only ever for ``safe_names`` — storage no call or
    #: pointer store can write, so :meth:`invalidate_memory` leaves it alone.
    consts: dict[str, int] = field(default_factory=dict)
    #: Known value ranges of callee-immune names: name -> ``(lo, hi)`` with
    #: ``None`` bounds meaning ±∞ (:mod:`repro.dataflow.intervals`).  Seeded
    #: from the CFG solve's loop-head interval environments and refined on
    #: branch forks; like ``consts`` they feed checker precision, not the
    #: elision pass, and are memory-immune by construction.
    ranges: dict[str, tuple[int | None, int | None]] = field(default_factory=dict)
    #: Relational facts over *atoms*: a difference-bound environment
    #: (:mod:`repro.dataflow.octagons` machinery, variables keyed by the
    #: rendered core expression) recording ``±a ± b <= c`` for the region's
    #: tested comparisons (all six operators, with constant offsets folded
    #: into the bound — the true arm of ``i <= limit`` records
    #: ``i - limit <= 0``), the region's alias assignments (``m = n``), the
    #: CFG solve's loop-head octagon state, and everything closure derives
    #: from them.  This subsumes the old syntactic guard-key matching
    #: semantically: ``__deputy_check_index(i, n)`` discharges whenever the
    #: environment *entails* ``i - n <= -1``, whether the region tested
    #: ``i < n`` directly or ``i <= limit`` with ``limit == n - 1``.
    relations: dict = field(default_factory=dict)
    #: Per-atom invalidation metadata: atom -> (mentioned names, reads heap).
    #: A relation dies with any of its atoms: on a write to a mentioned
    #: name, and (for heap-reading or non-immune atoms) on any store/call.
    _rel_atoms: dict[str, tuple[frozenset[str], bool]] = field(
        default_factory=dict)

    def key_of(self, check: ast.Expr) -> str:
        return render_expression(check)

    def is_redundant(self, check: ast.Expr) -> bool:
        """Whether an identical check has already been emitted."""
        if not self.enabled:
            return False
        return self.key_of(check) in self._seen

    def remember(self, check: ast.Expr) -> None:
        if not self.enabled:
            return
        names = {node.name for node in walk(check) if isinstance(node, ast.Ident)}
        key = self.key_of(check)
        self._seen[key] = names
        if _reads_heap(check):
            self._heap_reads.add(key)

    def invalidate_name(self, name: str) -> None:
        """A variable was written: drop every cached check that mentions it."""
        self.consts.pop(name, None)
        self.ranges.pop(name, None)
        if self._rel_atoms:
            self._drop_atoms({atom for atom, (names, _)
                              in self._rel_atoms.items() if name in names})
        if not self.enabled or not self._seen:
            return
        stale = [key for key, names in self._seen.items() if name in names]
        for key in stale:
            del self._seen[key]
            self._heap_reads.discard(key)

    def invalidate_memory(self) -> None:
        """A store through a pointer or an unknown call happened.

        Any check whose validity depends on the heap (pointer validity,
        nullterm scans) could be invalidated; we conservatively drop all
        cached checks that mention memory at all.  An index comparison
        survives only when it is heap-free (no deref, subscript, or ``->``
        inside the check expression) *and* every variable it mentions is
        provably immune to the store (``safe_names``): an index check over a
        global or an address-taken local can be invalidated by a callee
        write, so it is dropped like everything else.
        """
        if self._rel_atoms:
            immune = self.safe_names or frozenset()
            self._drop_atoms({atom for atom, (names, reads_heap)
                              in self._rel_atoms.items()
                              if reads_heap or not names <= immune})
        if not self.enabled or not self._seen:
            return
        safe = self.safe_names or frozenset()
        stale = [key for key, names in self._seen.items()
                 if not (key.startswith("__deputy_check_index")
                         and key not in self._heap_reads
                         and {name for name in names
                              if not name.startswith("__deputy_check")} <= safe)]
        for key in stale:
            del self._seen[key]
            self._heap_reads.discard(key)

    def invalidate_all(self) -> None:
        self._seen.clear()
        self._heap_reads.clear()
        self.consts.clear()
        self.ranges.clear()
        self.relations.clear()
        self._rel_atoms.clear()

    def _drop_atoms(self, stale: set[str]) -> None:
        """Drop the relational rows touching any atom in ``stale``."""
        if not stale:
            return
        for atom in stale:
            del self._rel_atoms[atom]
        if self.relations:
            self.relations = {
                key: bound for key, bound in self.relations.items()
                if key[0][0] not in stale and key[1][0] not in stale
            }

    def fork(self, cond: ast.Expr | None = None,
             branch_true: bool = True) -> "CheckCache":
        """A copy for a branch arm (checks proven before the branch survive).

        With ``cond`` supplied the copy is branch-refined: the arm's cache
        learns the condition facts its edge establishes (``if (k == 2)``
        binds ``k = 2`` in the then-arm), mirroring the CFG layer's
        edge refinement inside the instrumenter's structural walk.  A
        condition that assigns or increments refines nothing, as on the CFG
        edge; it is walked for side effects once, here.
        """
        clone = CheckCache(enabled=self.enabled, safe_names=self.safe_names)
        clone._seen = {k: set(v) for k, v in self._seen.items()}
        clone._heap_reads = set(self._heap_reads)
        clone.consts = dict(self.consts)
        clone.ranges = dict(self.ranges)
        clone.relations = dict(self.relations)
        clone._rel_atoms = dict(self._rel_atoms)
        if cond is not None and not _has_side_effects(cond):
            safe = self.safe_names or frozenset()
            facts = _condition_facts(cond, branch_true, clone.consts, safe)
            if facts is not INFEASIBLE:
                clone.consts.update(facts)
            interval_facts = _interval_condition_facts(
                cond, branch_true, clone.ranges, clone.consts, safe)
            if interval_facts is not INFEASIBLE:
                clone.ranges.update(interval_facts)
            clone._record_relations(cond, branch_true)
        return clone

    def joined(self, other: "CheckCache") -> "CheckCache":
        """The lattice join of two region caches (control-flow merge).

        Only cached checks present in both and constant bindings both agree
        on survive — facts valid on every incoming path.
        """
        clone = CheckCache(enabled=self.enabled, safe_names=self.safe_names)
        clone._seen = {key: set(names) for key, names in self._seen.items()
                       if key in other._seen}
        clone._heap_reads = ((self._heap_reads | other._heap_reads)
                             & set(clone._seen))
        clone.consts = {name: value for name, value in self.consts.items()
                        if other.consts.get(name) == value}
        clone.ranges = {
            name: joined
            for name, joined in ((name, join_interval(bounds,
                                                      other.ranges[name]))
                                 for name, bounds in self.ranges.items()
                                 if name in other.ranges)
            if joined != (None, None)}
        clone.relations = join_octagon_envs(self.relations, other.relations)
        clone._rel_atoms = {atom: meta for atom, meta
                            in self._rel_atoms.items()
                            if atom in other._rel_atoms}
        return clone

    def fork_switch(self, scrutinee: ast.Expr,
                    case_value: ast.Expr | None) -> "CheckCache":
        """A copy for one switch arm, refined with the case's dispatch fact."""
        if case_value is None:
            return self.fork()
        return self.fork(cond=ast.Binary(op="==", left=scrutinee,
                                         right=case_value),
                         branch_true=True)

    # -- constant facts ------------------------------------------------------

    def fold(self, expr: ast.Expr) -> int | None:
        """Fold ``expr`` under this region's constant facts."""
        return eval_const(expr, self.consts)

    def note_effects(self, expr: ast.Expr) -> None:
        """Learn/kill constant and range bindings from the assignments in ``expr``.

        Runs the CFG solve's transfer (:class:`repro.dataflow.domains.ProductWalk`)
        over this region's ``(consts, ranges)`` pair — one evaluation-order
        rule for both the solve and this structural walk.  Each assignment
        sees both components as they stand at that point of ``expr``
        (``i = i + 1`` reads the right-hand ``i`` before the write), and an
        assignment under ``&&``/``||`` or a ternary arm only *may* execute,
        so it joins instead of binding unless the current constants decide
        the operand.

        Relational learning runs first, under the pre-update constants:
        certain (not may-execute) ``m = n``-shaped assignments bind an
        equality between atoms — relations on the written names were
        already dropped by the caller's invalidation pass, so learning
        never relates a value to itself.
        """
        self._note_relations(expr)
        safe = self.safe_names or frozenset()
        walk = ProductWalk((ConstDomain(None, None, safe), IntervalDomain(None, None, safe)), safe)
        consts, ranges = walk.expr(expr, (self.consts, self.ranges))
        self.consts, self.ranges = dict(consts), dict(ranges)

    def bind_decl(self, name: str, init: ast.Expr | None) -> None:
        """A declaration bound ``name`` (whose old facts the caller already
        dropped): an initialised one is learnt as the assignment
        ``name = init`` (:meth:`note_effects`), so it binds the constant,
        the range and, for a linear initializer (``int limit = n - 1;``),
        the relational equality ``limit == n - 1`` that the loop-guard
        entailment later closes through.
        """
        if init is not None:
            self.note_effects(ast.Assign(target=ast.Ident(name=name), value=init))

    # -- interval facts ------------------------------------------------------

    def seed_ranges(
        self,
        frozen_env: tuple[tuple[str, tuple[int | None, int | None]], ...],
    ) -> None:
        """Adopt a CFG solve's frozen interval environment (loop-head state).

        The structural walk cannot iterate a loop body to a fixpoint, so at
        loop heads it imports the widened/narrowed per-block state the CFG
        solver already computed — e.g. ``i: [0, +inf]`` at the head of
        ``for (i = 0; i < n; i++)``, the lower bound the index proof needs.
        """
        safe = self.safe_names or frozenset()
        for name, bounds in frozen_env:
            if name in safe:
                self.ranges[name] = bounds

    # -- relational facts ----------------------------------------------------

    def seed_relations(
        self,
        frozen_env: tuple[tuple[tuple[str, int], tuple[str, int], int], ...],
    ) -> None:
        """Adopt a CFG solve's frozen octagon environment (loop-head state).

        The relational twin of :meth:`seed_ranges`: loop bodies start from a
        fresh cache, so a bound derived *before* the loop (``limit = n - 1``)
        reaches the body only through the solver's loop-head state.  The
        solved octagon variables are trackable names, which map one-to-one
        onto name atoms here; frozen environments are already closed.
        """
        safe = self.safe_names or frozenset()
        for a, b, c in frozen_env:
            if a[0] not in safe or b[0] not in safe:
                continue
            for name in (a[0], b[0]):
                self._rel_atoms.setdefault(name, (frozenset((name,)), False))
            oct_tighten(self.relations, a, b, c)

    def prove_index(self, index: ast.Expr, bound: ast.Expr) -> str | None:
        """The proof (if any) that this region gives ``0 <= index < bound``.

        Returns ``"interval"`` when the index's numeric range alone beats a
        constant bound, ``"relational"`` when the strict upper bound follows
        from the difference-bound environment (directly tested, or entailed
        through closure — ``i <= limit`` with ``limit == n - 1`` proves
        ``i - n <= -1``), and ``None`` when the region proves nothing.  The
        lower bound always comes from the interval facts.
        """
        index = _strip_wrappers(index)
        bound = _strip_wrappers(bound)
        lo, hi = eval_interval(index, self.ranges, self.consts)
        if lo is None or lo < 0:
            return None
        bound_const = eval_const(bound, {})
        if bound_const is not None and hi is not None and hi < bound_const:
            return "interval"
        atom_index = self._atom_of(index)
        atom_bound = self._atom_of(bound)
        if atom_index is None or atom_bound is None:
            return None
        (ai, off_i, _), (ab, off_b, _) = atom_index, atom_bound
        if ai == ab:
            # Same value at the same program point: a[i] against i + k.
            return "relational" if off_i < off_b else None
        if entails_octagon(self.relations, 1, ai, -1, ab, off_b - off_i - 1):
            return "relational"
        return None

    def _atom_of(self, expr: ast.Expr) -> tuple[str, int, ast.Expr] | None:
        """``(atom, offset, core)`` for ``expr`` read as ``core + offset``.

        The atom is the rendered core expression after peeling wrappers and
        folding constant addends (under the region's constant facts — sound
        to bake in, since a relation over the remaining atoms is a fact
        about their *values* at recording time).  A fully-literal expression
        returns ``None``: numeric bounds are the interval path's job.
        """
        expr = _strip_wrappers(expr)
        offset = 0
        while isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            right = eval_const(expr.right, self.consts)
            if right is not None:
                offset += right if expr.op == "+" else -right
                expr = _strip_wrappers(expr.left)
                continue
            left = eval_const(expr.left, self.consts)
            if left is not None and expr.op == "+":
                offset += left
                expr = _strip_wrappers(expr.right)
                continue
            break
        if eval_const(expr, {}) is not None:
            return None
        return render_expression(expr), offset, expr

    def _note_atom(self, atom: str, core: ast.Expr) -> None:
        if atom not in self._rel_atoms:
            names = frozenset(node.name for node in walk(core)
                              if isinstance(node, ast.Ident))
            self._rel_atoms[atom] = (names, _reads_heap(core))

    def _learn_equality(self, name: str, value: ast.Expr) -> None:
        """A certain ``name = value``: bind the equality between their atoms."""
        if _has_side_effects(value):
            return
        parsed = self._atom_of(value)
        if parsed is None:
            return
        atom, offset, core = parsed
        names, _ = meta = (frozenset(node.name for node in walk(core)
                                     if isinstance(node, ast.Ident)),
                           _reads_heap(core))
        if name in names:
            return  # self-referential (i = i + 1): relations already dropped
        self._rel_atoms.setdefault(atom, meta)
        self._rel_atoms.setdefault(name, (frozenset((name,)), False))
        add_octagon_constraint(self.relations, 1, name, -1, atom, offset)
        add_octagon_constraint(self.relations, -1, name, 1, atom, -offset)

    def _note_relations(self, expr: ast.Expr | None) -> None:
        """Learn alias equalities from the *certain* assignments in ``expr``.

        Mirrors the transfer walk's evaluation-order structure, but learning
        only: an assignment under ``&&``/``||`` or a ternary arm only *may*
        execute, and its target's relations were already invalidated by the
        caller's ``written_names`` pass, so uncertain subtrees contribute
        nothing here.
        """
        if expr is None:
            return
        if isinstance(expr, ast.Assign):
            self._note_relations(expr.value)
            if not isinstance(expr.target, ast.Ident):
                self._note_relations(expr.target)
                return
            name = expr.target.name
            if name in (self.safe_names or frozenset()) and expr.op == "=":
                self._learn_equality(name, expr.value)
            return
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            self._note_relations(expr.left)
            return
        if isinstance(expr, ast.Conditional):
            self._note_relations(expr.cond)
            return
        for child in iter_child_nodes(expr):
            if isinstance(child, ast.Expr):
                self._note_relations(child)

    def _record_relations(self, cond: ast.Expr, branch_true: bool) -> None:
        """Record the difference bounds ``cond`` establishes on this edge.

        All six comparison operators contribute (possibly negated, or nested
        under ``&&`` on the true edge / ``||`` on the false edge): strict and
        non-strict inequalities add one constraint with the strictness
        folded into the bound, ``==`` adds both directions, ``!=`` adds
        nothing (non-convex).  The merged environment is closed so entailed
        bounds (``i <= limit`` plus ``limit == n - 1`` gives ``i < n``)
        become directly queryable.
        """
        pending: list[tuple[int, str, int, str, int]] = []
        for literal, truth in branch_literals(cond, branch_true):
            normalized = comparison(literal, truth)
            if normalized is None or normalized[0] == "!=":
                continue
            op, left, right = normalized
            left = self._atom_of(left)
            right = self._atom_of(right)
            if left is None or right is None:
                continue
            (a1, o1, core1), (a2, o2, core2) = left, right
            if a1 == a2:
                continue
            self._note_atom(a1, core1)
            self._note_atom(a2, core2)
            if op == "==":
                pending.append((1, a1, -1, a2, o2 - o1))
                pending.append((-1, a1, 1, a2, o1 - o2))
            else:
                strict = 1 if op == "<" else 0
                pending.append((1, a1, -1, a2, o2 - o1 - strict))
        if not pending:
            return
        for s1, a1, s2, a2, c in pending:
            add_octagon_constraint(self.relations, s1, a1, s2, a2, c)
        closed = close_octagon(self.relations)
        if closed is not None:
            self.relations = closed


def _strip_wrappers(expr: ast.Expr) -> ast.Expr:
    """Peel casts and comma sequences down to the value-producing core.

    Instrumentation wraps expressions in check sequences —
    ``(__deputy_check_ptr(buf, ...), buf->n)`` — whose value is the last
    operand; guard recording and the index proof must compare the *cores*
    so the loop guard's bound and the obligation's rebound count expression
    render identically.
    """
    while True:
        if isinstance(expr, ast.Cast):
            expr = expr.operand
        elif isinstance(expr, ast.Comma) and expr.exprs:
            expr = expr.exprs[-1]
        else:
            return expr


def _reads_heap(check: ast.Expr) -> bool:
    """Whether the check expression reads through memory.

    A deref (``*p``), a subscript (``a[i]``), or an arrow member access
    (``p->n``) makes the check's *value* depend on the heap, so no amount of
    name-immunity can keep it valid across a store.  A dot access on a local
    struct stays name-governed (the base identifier is in the name set and
    escapes via ``&s...``), so it does not count.
    """
    for node in walk(check):
        if isinstance(node, ast.Index):
            return True
        if isinstance(node, ast.Member) and node.arrow:
            return True
        if isinstance(node, ast.Unary) and node.op == "*":
            return True
    return False


def written_names(expr: ast.Expr) -> list[str]:
    """Names of variables directly written by ``expr`` (for invalidation)."""
    names: list[str] = []
    for node in walk(expr):
        if isinstance(node, ast.Assign) and isinstance(node.target, ast.Ident):
            names.append(node.target.name)
        elif isinstance(node, (ast.Postfix, ast.Unary)) and getattr(node, "op", "") in ("++", "--"):
            operand = node.operand
            if isinstance(operand, ast.Ident):
                names.append(operand.name)
    return names


def writes_memory(expr: ast.Expr) -> bool:
    """Whether ``expr`` may store through a pointer or call a function."""
    for node in walk(expr):
        if isinstance(node, ast.Call):
            return True
        if isinstance(node, ast.Assign) and not isinstance(node.target, ast.Ident):
            return True
        if isinstance(node, (ast.Postfix, ast.Unary)) and getattr(node, "op", "") in ("++", "--"):
            if not isinstance(node.operand, ast.Ident):
                return True
    return False
