"""The pluggable abstract-domain API and the reduced-product solver.

Before this module, the condition-facts pipeline was hard-coded to constant
propagation: the engine solved :class:`repro.dataflow.consts.FunctionConsts`
per function, checkers consumed its ``infeasible`` set through
``refined_edges``, and adding a second lattice meant touching the solver,
every checker, the summaries, both artifact layers and the Deputy
optimizer.  This module is the API seam that makes domains *pluggable*:

* :class:`AbstractDomain` — the protocol a domain implements
  (``bottom``/``initial``/``transfer``/``join``/``widen``/``narrow``/
  ``refine_edge``/``freeze``).  A domain transfers **per CFG element** and
  receives a *product snapshot* — the other domains' states before the
  element — so components can reduce each other (intervals fold through the
  constant environment) without a hand-written product transfer per pair.
* :func:`solve_function_facts` — the generic reduced-product fixpoint:
  one :func:`repro.dataflow.solver.solve_forward` run over tuple states,
  widening per domain once a block's input churns, a bounded narrowing
  sweep to claw back over-widened bounds, then a recording pass that
  freezes per-domain environments and attributes each infeasible edge to
  the *first* domain (in registry order) that proves it dead.
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

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol

from ..minic import ast_nodes as ast
from ..minic.syntax import FunctionSyntax, index_function
from .cfg import CFG, BasicBlock, Edge, build_cfg
from .consts import (
    CONST_SOLVE_COUNTS,
    ConstDomain,
    FunctionConsts,
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
    "domain_fingerprint",
    "facts_of",
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
    """

    name: str

    def bottom(self) -> None: ...

    def initial(self) -> Any:
        """The state at function entry."""
        ...

    def transfer(self, element, state: Any, product: Mapping[str, Any]) -> Any:
        """The state after one CFG element; ``product`` maps domain name to
        that domain's state *before* the element (the reduction input)."""
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
        """Refined state for one outgoing edge, or :data:`INFEASIBLE`."""
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
    octagon_edge_facts: dict[tuple[int, int], FrozenOctEnv] = field(
        default_factory=dict
    )


def solve_function_facts(
    func: ast.FuncDef,
    cfg: Optional[CFG] = None,
    domains: tuple[str, ...] = DEFAULT_DOMAINS,
    syntax: Optional[FunctionSyntax] = None,
) -> FunctionFacts:
    """Run the reduced product of ``domains`` to fixpoint over one function.

    One generic solve: tuple states, per-element product snapshots, widening
    once a block's input has churned past the solver's delay, then
    :data:`NARROW_ROUNDS` of decreasing iteration, then the recording pass.
    Counts against ``CONST_SOLVE_COUNTS`` — the facts solve *is* the consts
    solve, grown a component — so the incremental-invalidation tests keep
    measuring exactly the work the service avoids.
    """
    CONST_SOLVE_COUNTS[func.name] += 1
    cfg = cfg or build_cfg(func)
    safe = trackable_names(func, syntax)
    insts = [DOMAIN_REGISTRY[name](func, cfg, safe) for name in domains]

    def transfer(block: BasicBlock, states: tuple) -> tuple:
        current = list(states)
        for element in block.elements:
            snapshot = {d.name: s for d, s in zip(insts, current)}
            current = [d.transfer(element, s, snapshot) for d, s in zip(insts, current)]
        return tuple(current)

    def join(a: tuple, b: tuple) -> tuple:
        return tuple(d.join(x, y) for d, x, y in zip(insts, a, b))

    def widen(old: tuple, new: tuple) -> tuple:
        return tuple(d.widen(x, y) for d, x, y in zip(insts, old, new))

    def refine(block: BasicBlock, pos: int, edge: Edge, states: tuple):
        snapshot = {d.name: s for d, s in zip(insts, states)}
        refined = []
        for d, s in zip(insts, states):
            outcome = d.refine_edge(block, pos, edge, s, snapshot)
            if outcome is INFEASIBLE:
                return INFEASIBLE
            refined.append(outcome)
        return tuple(refined)

    entry = tuple(d.initial() for d in insts)
    in_states = solve_forward(cfg, transfer, join, entry, edge_refine=refine, widen=widen)
    _narrow(cfg, insts, transfer, join, refine, in_states)
    return _record(cfg, domains, insts, transfer, in_states)


def _narrow(cfg, insts, transfer, join, refine, in_states) -> None:
    """Bounded decreasing iteration from the post-widening fixpoint.

    Each round recomputes every reachable block's input as the join of its
    feasible, refined predecessor outputs and lets each domain *narrow*
    toward it — finite widened bounds stay put, only bounds widening threw
    to ±∞ are refilled, so the sweep terminates and stays above the least
    fixpoint.  Reachability is never revised downward here: a block with no
    currently-feasible predecessor keeps its state rather than dropping to
    ⊥ mid-sweep.
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


def _record(cfg, domains, insts, transfer, in_states) -> FunctionFacts:
    """Freeze the solved states and attribute every pruned edge."""
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
        snapshot = {d.name: s for d, s in zip(insts, out_states)}
        for pos, edge in enumerate(block.succs):
            pruned_by = None
            oct_refined = None
            for d, s in zip(insts, out_states):
                outcome = d.refine_edge(block, pos, edge, s, snapshot)
                if outcome is INFEASIBLE:
                    pruned_by = d.name
                    break
                if d.name == "octagons":
                    oct_refined = outcome
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
            if octagon_slot is not None and oct_refined is not None:
                out_env = out_states[octagon_slot]
                delta = {
                    key: bound
                    for key, bound in oct_refined.items()
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

    The product API twin of ``consts_of`` — same cache discipline (the
    engine seeds ``cache`` from its keyed artifact), same branchless
    short-circuit (no branches means nothing to refine or prune and no loop
    to bound).  ``syntax`` is ``func``'s index record when the caller holds
    the program (``program.syntax(name)``); otherwise it is built here.
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


#: Kept for callers that count product solves under the historical name.
FACTS_SOLVE_COUNTS: Counter[str] = CONST_SOLVE_COUNTS
