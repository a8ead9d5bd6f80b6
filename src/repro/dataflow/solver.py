"""A forward-dataflow fixpoint solver over :mod:`repro.dataflow.cfg` graphs.

The solver is deliberately small: an analysis supplies

* ``entry_state`` — the abstract state at function entry;
* ``transfer(block, state)`` — a *pure* function returning the state after
  executing every element of ``block`` on ``state``;
* ``join(a, b)`` — the lattice join applied where control-flow paths merge.

``solve_forward`` runs a worklist iteration until no block's input state
changes, which handles loops (back edges feed the loop header until the
fixpoint) and if/else merges (both arms joined, never leaked into each
other).  Unreachable blocks keep the input state ``None`` (bottom): the
transfer function is never applied to them and joins ignore them.

Since the condition-aware refactor (:mod:`repro.dataflow.consts`) the solver
is edge-aware: an optional ``edge_refine(block, pos, edge, out_state)`` hook
runs on every outgoing edge and may *refine* the propagated state with
branch facts, or return the :data:`INFEASIBLE` sentinel to cut the edge
entirely — the product-lattice step that keeps constant-false arms at
bottom instead of joining them at the merge.  Analyses that pre-solve the
constant component pass :func:`repro.dataflow.consts.refined_edges` here.

Termination is the analysis's responsibility in principle (states must stop
changing), but all the repro's lattices are finite; a generous iteration
cap turns a non-converging transfer into a loud error instead of a hang.

Lattices with infinite ascending chains (the interval domain of
:mod:`repro.dataflow.intervals`) pass a ``widen`` hook: after a block's
input has been updated ``WIDEN_DELAY`` times, further updates go through
``widen(old, new)`` instead of plain join, which must jump far enough up
the lattice to make the chain finite.  Counting *updates per target block*
rather than detecting back edges keeps the solver oblivious to loop
structure — irreducible flow (``goto`` into a loop) widens just the same.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Optional

from .cfg import CFG, BasicBlock, Edge

TransferFn = Callable[[BasicBlock, Any], Any]
JoinFn = Callable[[Any, Any], Any]
EdgeRefineFn = Callable[[BasicBlock, int, Edge, Any], Any]

#: Sentinel an ``edge_refine`` hook returns to mark an edge as never taken.
INFEASIBLE = object()

#: Upper bound on worklist pops per block before declaring divergence.
MAX_VISITS_PER_BLOCK = 1000

#: Joins a block input absorbs before further updates are widened.
WIDEN_DELAY = 3


class FixpointDivergence(RuntimeError):
    """Raised when a transfer/join pair fails to converge (lattice bug)."""


def solve_forward(
    cfg: CFG,
    transfer: TransferFn,
    join: JoinFn,
    entry_state: Any,
    edge_refine: Optional[EdgeRefineFn] = None,
    widen: Optional[JoinFn] = None,
    widen_delay: int = WIDEN_DELAY,
) -> list[Optional[Any]]:
    """Solve a forward dataflow problem; returns per-block *input* states.

    The result is indexed by block index; ``None`` marks blocks no path
    reaches — whether because no edge leads there at all or because every
    edge leading there was refined away as infeasible.  Output states are
    not kept: a caller re-applies ``transfer`` (see :func:`reachable_blocks`
    for the recording pass), or memoizes its ``transfer`` on the input
    state, as the product solve of :mod:`repro.dataflow.domains` does.

    ``widen``, when supplied, replaces the join for a target block once its
    input state has already changed ``widen_delay`` times — the delay lets
    small constant loops settle exactly before bounds are thrown away.
    """
    in_states: list[Optional[Any]] = [None] * len(cfg.blocks)
    in_states[cfg.entry] = entry_state
    worklist: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    updates = [0] * len(cfg.blocks)
    visits = 0
    budget = MAX_VISITS_PER_BLOCK * max(1, len(cfg.blocks))
    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        visits += 1
        if visits > budget:
            raise FixpointDivergence(
                f"dataflow did not converge in {cfg.function} "
                f"({len(cfg.blocks)} blocks, {visits} visits)"
            )
        block = cfg.blocks[index]
        out_state = transfer(block, in_states[index])
        for pos, edge in enumerate(block.succs):
            edge_state = out_state
            if edge_refine is not None:
                edge_state = edge_refine(block, pos, edge, out_state)
                if edge_state is INFEASIBLE:
                    continue
            current = in_states[edge.target]
            merged = edge_state if current is None else join(current, edge_state)
            if merged != current:
                if (
                    widen is not None
                    and current is not None
                    and updates[edge.target] >= widen_delay
                ):
                    merged = widen(current, merged)
                    if merged == current:
                        continue
                updates[edge.target] += 1
                in_states[edge.target] = merged
                if edge.target not in queued:
                    queued.add(edge.target)
                    worklist.append(edge.target)
    return in_states


def reachable_blocks(
    cfg: CFG,
    in_states: list[Optional[Any]],
) -> Iterator[tuple[BasicBlock, Any]]:
    """Yield ``(block, input_state)`` for every reachable block, in index order.

    This drives the recording pass: after :func:`solve_forward` converges,
    an analysis replays each reachable block exactly once, stepping its own
    per-element transfer from the solved input state to emit facts
    (acquisition sites, atomic call sites, checked variables) against the
    exact state that reaches each element.  Block-index order makes the
    emitted facts deterministic and approximately source-ordered.
    """
    for block in cfg.blocks:
        state = in_states[block.index]
        if state is not None:
            yield block, state
