"""Flow-sensitive and interprocedural dataflow core shared by every checker.

The package has two layers:

* the *intraprocedural* half — :mod:`repro.dataflow.cfg` builds
  control-flow graphs over MiniC function bodies (basic blocks for
  ``if``/``else``, loops, ``switch``, early ``return``,
  ``break``/``continue`` and ``goto``/labels, with edges carrying branch
  information), :mod:`repro.dataflow.solver` is a small forward-dataflow
  fixpoint solver: lattice join at merge points, loop iteration to a
  fixpoint, an ``edge_refine`` hook for branch-edge facts and pruning, plus
  the replay helper the analyses use to record facts against the solved
  per-block input states — and :mod:`repro.dataflow.consts` is the
  condition-aware layer: a constant-propagation lattice whose solved
  per-function facts mark constant-false branch edges infeasible, so every
  client lattice skips provably-dead arms instead of joining them.
* the *interprocedural* half — :mod:`repro.dataflow.summaries` defines the
  per-function :class:`FunctionSummary` lattice element (lock delta,
  may-return-held, IRQ delta, may-block, error-return set, frame size and
  stack depth) and its transfer/join functions;
  :mod:`repro.dataflow.interproc` condenses the call graph into SCCs
  (Tarjan, bottom-up order, parallel-scheduling waves) and solves every
  function's summary callees-first, iterating recursive components to a
  fixpoint.

The flat ``walk()`` scans the checkers used before this package existed let
analysis state leak across exclusive branches (a lock taken in a then-branch
was "held" in the else-branch).  Running on the CFG, each branch is analysed
with exactly the state that reaches it, and merge points combine the branch
states through an analysis-chosen join.  The summary layer extends the same
discipline across function boundaries: what a flat scan would re-discover in
every caller is computed once per callee and applied at each call site.
"""

from .cfg import COND, DECL, EXPR, RETURN, CFG, BasicBlock, Edge, Element, build_cfg
from .consts import (
    ConstDomain,
    FunctionConsts,
    eval_const,
    refined_edges,
)
from .domains import (
    DEFAULT_DOMAINS,
    DOMAIN_REGISTRY,
    AbstractDomain,
    FunctionFacts,
    domain_fingerprint,
    facts_of,
    solve_function_facts,
    solve_program_facts,
)
from .intervals import IntervalDomain, eval_interval, interval_condition_facts
from .octagons import (
    OctagonDomain,
    add_octagon_constraint,
    close_octagon,
    entails_octagon,
    freeze_octagon_env,
    join_octagon_envs,
    narrow_octagon_envs,
    octagon_condition_facts,
    thaw_octagon_env,
    widen_octagon_envs,
)
from .interproc import (
    Condensation,
    SummaryDivergence,
    callgraph_fingerprint,
    condense_callgraph,
    solve_scc,
    solve_summaries,
)
from .solver import INFEASIBLE, FixpointDivergence, reachable_blocks, solve_forward
from .summaries import FunctionSummary, SummaryContext, build_context

__all__ = [
    "AbstractDomain",
    "CFG",
    "BasicBlock",
    "COND",
    "Condensation",
    "ConstDomain",
    "DECL",
    "DEFAULT_DOMAINS",
    "DOMAIN_REGISTRY",
    "EXPR",
    "FunctionConsts",
    "FunctionFacts",
    "FunctionSummary",
    "INFEASIBLE",
    "IntervalDomain",
    "OctagonDomain",
    "RETURN",
    "Edge",
    "Element",
    "SummaryContext",
    "SummaryDivergence",
    "add_octagon_constraint",
    "build_cfg",
    "build_context",
    "callgraph_fingerprint",
    "close_octagon",
    "condense_callgraph",
    "domain_fingerprint",
    "entails_octagon",
    "eval_const",
    "eval_interval",
    "facts_of",
    "FixpointDivergence",
    "freeze_octagon_env",
    "interval_condition_facts",
    "join_octagon_envs",
    "narrow_octagon_envs",
    "octagon_condition_facts",
    "reachable_blocks",
    "refined_edges",
    "solve_forward",
    "solve_function_facts",
    "solve_program_facts",
    "solve_scc",
    "solve_summaries",
    "thaw_octagon_env",
    "widen_octagon_envs",
]
