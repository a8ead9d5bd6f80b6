"""The pluggable abstract-domain API and the reduced-product solver.

Before this module, the condition-facts pipeline was hard-coded to constant
propagation: the engine solved :class:`repro.dataflow.consts.FunctionConsts`
per function, checkers consumed its ``infeasible`` set through
``refined_edges``, and adding a second lattice meant touching the solver,
every checker, the summaries, both artifact layers and the Deputy
optimizer.  This module is the API seam that makes domains *pluggable*:

* :class:`AbstractDomain` — the protocol a domain implements
  (``bottom``/``initial``/``assign``/``step``/``join``/``widen``/``narrow``/
  ``refine_edge``/``freeze``).  A domain supplies only its *atomic effects*:
  what one write of a trackable name does to its state.  Each hook receives
  the *product* — every domain's state at that point of the element — so
  components can reduce each other (intervals fold through the constant
  environment) without a hand-written product transfer per pair.
* :class:`ProductWalk` — the product's transfer: one walk of C evaluation
  order per CFG element that calls every domain's hook at each effect.  The
  Deputy region cache runs the same walk over its constants and ranges, so
  the solve and Deputy share one evaluation-order rule.
* :func:`solve_function_facts` — the generic reduced-product fixpoint:
  one :func:`repro.dataflow.solver.solve_forward` run over tuple states,
  widening per domain once a block's input churns, a bounded narrowing
  sweep to claw back over-widened bounds, then a recording pass that
  freezes per-domain environments and attributes each infeasible edge to
  the *first* domain (in registry order) that proves it dead.  A block
  transfer walks only the elements that can move a state
  (:func:`moves_state`), and the three phases share one block transfer per
  distinct input tuple and one edge refinement per distinct out-state
  tuple.
* :class:`FunctionFacts` — the cacheable artifact, a drop-in for
  ``FunctionConsts`` everywhere (`.reachable`/`.prunes`/`.infeasible`/
  ``.in_envs``/``.edge_facts`` keep their exact meaning; the interval
  component adds ``interval_envs`` and the interval-only ``interval_pruned``
  attribution the stats layer reports separately).

``refined_edges`` is unchanged and re-exported: it reads only
``.infeasible``, so every client lattice consumes the product exactly as it
consumed bare constants — the reduced-product composition argument from
consts.py carries over because no registered domain depends on any client
component.

Registering a domain is adding one entry to :data:`DOMAIN_REGISTRY`; the
engine and the incremental service salt their artifact keys with the domain
tuple, so flipping the set invalidates persisted facts instead of
misinterpreting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol, Sequence

from ..minic import ast_nodes as ast
from ..minic.syntax import FunctionSyntax, index_function
from ..minic.visitor import iter_child_nodes
from .cfg import CFG, BasicBlock, Edge, Element, build_cfg
from .consts import (
    CONST_SOLVE_COUNTS,
    ConstDomain,
    FunctionConsts,
    eval_const,
    refined_edges,
    trackable_names,
)
from .intervals import FrozenIntervalEnv, IntervalDomain
from .octagons import FrozenOctEnv, OctagonDomain
from .solver import INFEASIBLE, solve_forward

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.program import Program

__all__ = [
    "AbstractDomain",
    "DEFAULT_DOMAINS",
    "DOMAIN_REGISTRY",
    "FunctionFacts",
    "ProductWalk",
    "domain_fingerprint",
    "facts_of",
    "moves_state",
    "refined_edges",
    "solve_function_facts",
    "solve_program_facts",
]


class AbstractDomain(Protocol):
    """What a pluggable domain implements.  Structural — no subclassing.

    A domain instance is built per function solve with
    ``Domain(func, cfg, safe)`` where ``safe`` is the function's trackable
    name set.  States are opaque to the product solver; ``None`` (⊥) never
    reaches a domain — the solver holds bottom itself.

    A domain has no transfer of its own: :class:`ProductWalk` steps each
    element and calls ``assign`` or ``step`` at each write of a trackable
    name.  An element :func:`moves_state` rejects writes none, so the walk
    calls no hook for it and returns its input states: skipping such
    elements is exact for every domain by construction.
    """

    name: str

    def bottom(self) -> None: ...

    def initial(self) -> Any:
        """The state at function entry."""
        ...

    def assign(
        self, state: Any, name: str, op: str, value: ast.Expr, product: Mapping[str, Any]
    ) -> Any:
        """The state after ``name op value`` on a trackable ``name``.

        ``op`` is the assignment operator (``=``, ``+=``, ...); a trackable
        declaration's initializer arrives as ``=``.  ``product`` maps each
        domain name to its state just before this effect (the reduction
        input).
        """
        ...

    def step(self, state: Any, name: str, delta: int, product: Mapping[str, Any]) -> Any:
        """The state after ``++`` (``delta`` 1) or ``--`` (-1) on ``name``."""
        ...

    def join(self, a: Any, b: Any) -> Any: ...

    def widen(self, old: Any, new: Any) -> Any:
        """Accelerated join for infinite-chain lattices; plain join is fine
        for finite-height domains."""
        ...

    def narrow(self, old: Any, new: Any) -> Any:
        """Decreasing-iteration step; return ``old`` to opt out."""
        ...

    def refine_edge(self, block, pos: int, edge, state: Any, product: Mapping[str, Any]) -> Any:
        """Refined state for one outgoing edge, or :data:`INFEASIBLE`.

        An edge without a usable condition (``block.branch(edge)`` is
        ``None``: the block has no condition, or its condition assigns or
        increments) must return ``state`` itself; the solve relies on that
        and skips the call on such an edge.
        """
        ...

    def freeze(self, state: Any) -> Any:
        """Canonical hashable form for artifact storage."""
        ...


#: name -> domain factory ``(func, cfg, safe) -> AbstractDomain``.
DOMAIN_REGISTRY: dict[str, Any] = {
    "consts": ConstDomain,
    "intervals": IntervalDomain,
    "octagons": OctagonDomain,
}

#: The product every engine path solves unless configured otherwise.
DEFAULT_DOMAINS: tuple[str, ...] = ("consts", "intervals", "octagons")

#: Bounded decreasing iteration after the widened fixpoint.
NARROW_ROUNDS = 2


def moves_state(element: Element, safe: frozenset[str]) -> bool:
    """Whether ``element`` may move a state.

    Only an assignment, an increment or decrement, or a declaration binding
    a trackable (``safe``) name can; :class:`ProductWalk` returns its input
    states for every other element.
    """
    return element.has_side_effects or (element.decl is not None and element.decl.name in safe)


class ProductWalk:
    """The product transfer: one walk of C evaluation order per CFG element.

    At each assignment, ``++``/``--`` or declaration that writes a trackable
    (``safe``) name, every domain's ``assign`` or ``step`` hook runs with the
    product's states as they stand at that point.  An operand that only may
    run (the right side of ``&&``/``||``, the arms of ``?:``) is folded
    under the current constants; when the fold is undecided, each domain
    joins the state where it ran with the state where it did not.  States
    are tuples in ``domains`` order; an expression that writes no trackable
    name calls no hook and returns its input tuple itself.
    """

    def __init__(self, domains: Sequence[AbstractDomain], safe: frozenset[str]) -> None:
        self.domains = tuple(domains)
        self.names = tuple(d.name for d in self.domains)
        self.safe = safe
        self.const_slot = self.names.index("consts") if "consts" in self.names else None

    def element(self, element: Element, states: tuple) -> tuple:
        """The states after one CFG element."""
        states = self.expr(element.expr, states)
        decl = element.decl
        if decl is not None and decl.name in self.safe and decl.init.expr is element.expr:
            states = self._assign(states, decl.name, "=", element.expr)
        return states

    def expr(self, expr: Optional[ast.Expr], states: tuple) -> tuple:
        """The states after evaluating ``expr``."""
        if expr is None:
            return states
        if isinstance(expr, ast.Assign):
            states = self.expr(expr.value, states)
            target = expr.target
            if not isinstance(target, ast.Ident):
                return self.expr(target, states)
            if target.name not in self.safe:
                return states
            return self._assign(states, target.name, expr.op, expr.value)
        if isinstance(expr, (ast.Postfix, ast.Unary)) and expr.op in ("++", "--"):
            operand = expr.operand
            if not isinstance(operand, ast.Ident):
                return self.expr(operand, states)
            if operand.name not in self.safe:
                return states
            return self._step(states, operand.name, 1 if expr.op == "++" else -1)
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            states = self.expr(expr.left, states)
            ran = self.expr(expr.right, states)
            if ran is states:
                return states
            left = self._fold(expr.left, states)
            if left is None:
                return self._join(ran, states)
            return ran if (left != 0) == (expr.op == "&&") else states
        if isinstance(expr, ast.Conditional):
            states = self.expr(expr.cond, states)
            then = self.expr(expr.then, states)
            otherwise = self.expr(expr.otherwise, states)
            if then is otherwise:
                return then  # neither arm writes a trackable name
            cond = self._fold(expr.cond, states)
            if cond is None:
                return self._join(then, otherwise)
            return then if cond else otherwise
        for child in iter_child_nodes(expr):
            if isinstance(child, ast.Expr):
                states = self.expr(child, states)
        return states

    def _assign(self, states: tuple, name: str, op: str, value: ast.Expr) -> tuple:
        product = dict(zip(self.names, states))
        return tuple(d.assign(s, name, op, value, product) for d, s in zip(self.domains, states))

    def _step(self, states: tuple, name: str, delta: int) -> tuple:
        product = dict(zip(self.names, states))
        return tuple(d.step(s, name, delta, product) for d, s in zip(self.domains, states))

    def _fold(self, expr: ast.Expr, states: tuple) -> Optional[int]:
        return eval_const(expr, states[self.const_slot] if self.const_slot is not None else {})

    def _join(self, a: tuple, b: tuple) -> tuple:
        return tuple(d.join(x, y) for d, x, y in zip(self.domains, a, b))


def domain_fingerprint(domains: tuple[str, ...] = DEFAULT_DOMAINS) -> str:
    """The cache-key salt for a domain set (order-sensitive on purpose)."""
    return "+".join(domains)


@dataclass
class FunctionFacts(FunctionConsts):
    """One function's solved product facts — the engine-cacheable artifact.

    A literal subclass of ``FunctionConsts``: every consumer that reads
    ``.in_envs`` / ``.edge_facts`` / ``.infeasible`` / ``.prunes`` /
    ``.reachable`` keeps working unchanged (including ``isinstance``
    checks), the keys are still the deterministic CFG block numbering, and
    ``infeasible`` is the *union* over all domains — the interval-only and
    octagon-only subsets are attributed separately in ``interval_pruned``
    and ``octagon_pruned``.
    """

    #: The domain product this artifact was solved under (key-salt twin).
    domains: tuple[str, ...] = DEFAULT_DOMAINS
    #: Per-block interval input environments (only non-⊤ names appear;
    #: blocks whose interval env is all-⊤ are absent entirely).
    interval_envs: dict[int, FrozenIntervalEnv] = field(default_factory=dict)
    #: The subset of ``infeasible`` only the interval component proves dead.
    interval_pruned: frozenset[tuple[int, int]] = frozenset()
    #: Per-block closed octagon input environments (empty envs are absent).
    octagon_envs: dict[int, FrozenOctEnv] = field(default_factory=dict)
    #: The subset of ``infeasible`` only the octagon component proves dead.
    octagon_pruned: frozenset[tuple[int, int]] = frozenset()
    #: Per feasible edge: the relational constraints the branch adds beyond
    #: the source block's out-state (the ``cfg --format json`` dump reads
    #: this; empty deltas are absent).
    octagon_edge_facts: dict[tuple[int, int], FrozenOctEnv] = field(default_factory=dict)


def solve_function_facts(
    func: ast.FuncDef,
    cfg: Optional[CFG] = None,
    domains: tuple[str, ...] = DEFAULT_DOMAINS,
    syntax: Optional[FunctionSyntax] = None,
) -> FunctionFacts:
    """Run the reduced product of ``domains`` to fixpoint over one function.

    One generic solve: tuple states stepped by one :class:`ProductWalk`,
    widening once a block's input has churned past the solver's delay, then
    :data:`NARROW_ROUNDS` of decreasing iteration, then the recording pass.
    Counts against ``CONST_SOLVE_COUNTS`` — the facts solve *is* the consts
    solve, grown a component — so the incremental-invalidation tests keep
    measuring exactly the work the service avoids.

    The three phases share their work through two memos.  A block's
    transfer is kept with the input tuple it was computed from, and an
    edge's refinement with the out-state tuple it refined; a call with that
    very tuple (compared by identity, as states are unhashable dicts) reuses
    the result.  A block transfer walks only the elements
    :func:`moves_state` admits, so a block without one returns its input,
    and an edge without a usable condition keeps its out-state tuple, so no
    domain is asked to refine it.
    """
    CONST_SOLVE_COUNTS[func.name] += 1
    cfg = cfg or build_cfg(func)
    safe = trackable_names(func, syntax)
    insts = [DOMAIN_REGISTRY[name](func, cfg, safe) for name in domains]
    walk = ProductWalk(insts, safe)
    effects = [[e for e in block.elements if moves_state(e, safe)] for block in cfg.blocks]
    # Per block: (input tuple, output tuple) of its last transfer.
    block_memo: list[Optional[tuple]] = [None] * len(cfg.blocks)
    # Per block and successor: (out-state tuple, outcome, refuting domain).
    edge_memo: list[list[Optional[tuple]]] = [[None] * len(b.succs) for b in cfg.blocks]

    def transfer(block: BasicBlock, states: tuple) -> tuple:
        memo = block_memo[block.index]
        if memo is not None and memo[0] is states:
            return memo[1]
        current = states
        for element in effects[block.index]:
            current = walk.element(element, current)
        block_memo[block.index] = (states, current)
        return current

    def join(a: tuple, b: tuple) -> tuple:
        return tuple(d.join(x, y) for d, x, y in zip(insts, a, b))

    def widen(old: tuple, new: tuple) -> tuple:
        return tuple(d.widen(x, y) for d, x, y in zip(insts, old, new))

    def edge_outcome(block: BasicBlock, pos: int, edge: Edge, states: tuple) -> tuple:
        """``(states, refined tuple or INFEASIBLE, refuting domain or None)``."""
        memo = edge_memo[block.index][pos]
        if memo is not None and memo[0] is states:
            return memo
        if block.branch(edge) is None:
            # No usable condition: every domain keeps its state.
            memo = (states, states, None)
            edge_memo[block.index][pos] = memo
            return memo
        snapshot = {d.name: s for d, s in zip(insts, states)}
        refined = []
        for d, s in zip(insts, states):
            outcome = d.refine_edge(block, pos, edge, s, snapshot)
            if outcome is INFEASIBLE:
                memo = (states, INFEASIBLE, d.name)
                break
            refined.append(outcome)
        else:
            memo = (states, tuple(refined), None)
        edge_memo[block.index][pos] = memo
        return memo

    def refine(block: BasicBlock, pos: int, edge: Edge, states: tuple):
        return edge_outcome(block, pos, edge, states)[1]

    entry = tuple(d.initial() for d in insts)
    in_states = solve_forward(cfg, transfer, join, entry, edge_refine=refine, widen=widen)
    _narrow(cfg, insts, transfer, join, refine, in_states)
    return _record(cfg, domains, insts, transfer, edge_outcome, in_states)


def _narrow(cfg, insts, transfer, join, refine, in_states) -> None:
    """Bounded decreasing iteration from the post-widening fixpoint.

    Each round recomputes every reachable block's input as the join of its
    feasible, refined predecessor outputs and lets each domain *narrow*
    toward it — finite widened bounds stay put, only bounds widening threw
    to ±∞ are refilled, so the sweep terminates and stays above the least
    fixpoint.  Reachability is never revised downward here: a block with no
    currently-feasible predecessor keeps its state rather than dropping to
    ⊥ mid-sweep.

    ``transfer`` and ``refine`` are the solve's memoized closures: a
    predecessor whose input did not narrow since its last transfer costs a
    lookup per out-edge, not a transfer and a refinement.
    """
    preds: list[list[tuple[int, int, Edge]]] = [[] for _ in cfg.blocks]
    for block in cfg.blocks:
        for pos, edge in enumerate(block.succs):
            preds[edge.target].append((block.index, pos, edge))
    for _ in range(NARROW_ROUNDS):
        changed = False
        for block in cfg.blocks:
            index = block.index
            if index == cfg.entry or in_states[index] is None:
                continue
            merged = None
            for pred_index, pos, edge in preds[index]:
                pred_state = in_states[pred_index]
                if pred_state is None:
                    continue
                out_state = transfer(cfg.blocks[pred_index], pred_state)
                refined = refine(cfg.blocks[pred_index], pos, edge, out_state)
                if refined is INFEASIBLE:
                    continue
                merged = refined if merged is None else join(merged, refined)
            if merged is None:
                continue
            narrowed = tuple(
                d.narrow(old, new) for d, old, new in zip(insts, in_states[index], merged)
            )
            if narrowed != in_states[index]:
                in_states[index] = narrowed
                changed = True
        if not changed:
            break


def _record(cfg, domains, insts, transfer, edge_outcome, in_states) -> FunctionFacts:
    """Freeze the solved states and attribute every pruned edge.

    Out-states and edge outcomes come from the solve's memos, so a block
    whose input the last narrowing round left alone is not transferred
    again, and an edge's pruning attribution (the first refuting domain) and
    octagon refinement are read from its cached outcome.  Only the constant
    component's ``edge_facts`` still runs per feasible edge.
    """
    result = FunctionFacts(
        function=cfg.function, domains=tuple(domains), block_count=len(cfg.blocks)
    )
    by_name = {d.name: i for i, d in enumerate(insts)}
    const_slot = by_name.get("consts")
    interval_slot = by_name.get("intervals")
    octagon_slot = by_name.get("octagons")
    infeasible: set[tuple[int, int]] = set()
    interval_pruned: set[tuple[int, int]] = set()
    octagon_pruned: set[tuple[int, int]] = set()
    for block in cfg.blocks:
        states = in_states[block.index]
        if states is None:
            continue
        if const_slot is not None:
            result.in_envs[block.index] = insts[const_slot].freeze(states[const_slot])
        if interval_slot is not None:
            frozen = insts[interval_slot].freeze(states[interval_slot])
            if frozen:
                result.interval_envs[block.index] = frozen
        if octagon_slot is not None:
            frozen = insts[octagon_slot].freeze(states[octagon_slot])
            if frozen:
                result.octagon_envs[block.index] = frozen
        out_states = transfer(block, states)
        for pos, edge in enumerate(block.succs):
            _, refined, pruned_by = edge_outcome(block, pos, edge, out_states)
            if pruned_by is not None:
                infeasible.add((block.index, pos))
                if pruned_by == "intervals":
                    interval_pruned.add((block.index, pos))
                elif pruned_by == "octagons":
                    octagon_pruned.add((block.index, pos))
                continue
            if const_slot is not None:
                facts = insts[const_slot].edge_facts(block, pos, edge, out_states[const_slot])
                if facts and facts is not INFEASIBLE:
                    result.edge_facts[(block.index, pos)] = facts
            if octagon_slot is not None:
                out_env = out_states[octagon_slot]
                delta = {
                    key: bound
                    for key, bound in refined[octagon_slot].items()
                    if out_env.get(key) is None or bound < out_env[key]
                }
                if delta:
                    result.octagon_edge_facts[(block.index, pos)] = tuple(
                        sorted((a, b, c) for (a, b), c in delta.items())
                    )
    result.infeasible = frozenset(infeasible)
    result.interval_pruned = frozenset(interval_pruned)
    result.octagon_pruned = frozenset(octagon_pruned)
    return result


def facts_of(
    func: Optional[ast.FuncDef],
    cache: Optional[dict] = None,
    cfg: Optional[CFG] = None,
    domains: tuple[str, ...] = DEFAULT_DOMAINS,
    syntax: Optional[FunctionSyntax] = None,
) -> Optional[FunctionFacts]:
    """Memoized per-function product solve; ``None`` for branchless functions.

    ``cache`` maps function names to solved facts (the engine seeds it from
    its keyed artifact); a function without branches has nothing to refine
    or prune and no loop to bound, so it is not solved.  ``syntax`` is
    ``func``'s index record when the caller holds the program
    (``program.syntax(name)``); otherwise it is built here.
    """
    if func is None:
        return None
    if cache is not None and func.name in cache:
        return cache[func.name]
    syntax = syntax or index_function(func)
    result = solve_function_facts(func, cfg, domains, syntax) if syntax.has_branches else None
    if cache is not None:
        cache[func.name] = result
    return result


def solve_program_facts(
    program: "Program",
    functions: Optional[list[str]] = None,
    domains: tuple[str, ...] = DEFAULT_DOMAINS,
) -> dict[str, Optional[FunctionFacts]]:
    """Solve every (or a subset of) function's product facts.

    Deterministic: results come out in the program's function-definition
    order regardless of how the engine shards the computation, so serial
    and ``--jobs N`` runs persist byte-identical artifacts.
    """
    results: dict[str, Optional[FunctionFacts]] = {}
    for name, func in program.functions_subset(functions):
        results[name] = facts_of(func, domains=domains, syntax=program.syntax(name))
    return results
