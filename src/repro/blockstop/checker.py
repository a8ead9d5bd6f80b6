"""The BlockStop checker: no blocking calls while interrupts are disabled.

The analysis proceeds in four steps:

1. build the call graph (direct calls + points-to-resolved indirect calls);
2. compute the set of functions that may block — the ``may_block`` bit of the
   bottom-up function summaries (:mod:`repro.dataflow.interproc`), seeded by
   the ``blocking`` annotations with the GFP_WAIT refinement for allocators;
3. find every *atomic region*: code executed with interrupts disabled, either
   because the enclosing function disabled them (``local_irq_save``,
   ``spin_lock_irqsave``, ``spin_lock_irq``, ``cli``), because it called a
   helper whose summary says it returns with interrupts disabled (the callee
   IRQ delta), or because the function is an interrupt handler (registered
   through ``request_irq``) — skipping constant-false branch arms, which the
   shared constants lattice (:mod:`repro.dataflow.consts`) proves dead;
4. report every call site inside an atomic region whose callee may block,
   excluding paths that run through functions carrying the manual run-time
   assertion (:mod:`repro.blockstop.runtime_checks`).

Functions containing inline assembly are treated as opaque, matching the
paper's stated soundness caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow import build_cfg, reachable_blocks, solve_forward
from ..dataflow.consts import refined_edges
from ..dataflow.context import AnalysisContext
from ..dataflow.domains import FunctionFacts, facts_of
from ..dataflow.interproc import solve_summaries
from ..dataflow.summaries import (
    IRQ_DEPTH_CAP,
    IRQ_DISABLE_CALLS,
    IRQ_ENABLE_CALLS,
    FunctionSummary,
)
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import SourceLocation
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk
from .blocking import (
    BlockingInfo,
    call_site_may_block,
    derive_blocking,
)
from .callgraph import CallGraph, build_direct_callgraph
from .pointsto import FunctionPointerAnalysis, Precision
from .runtime_checks import RuntimeCheckSet
#: Registration functions whose function-pointer argument runs in IRQ context.
IRQ_HANDLER_REGISTRATION = frozenset({"request_irq", "register_irq_handler"})

#: Widening cap on the abstract interrupt-disable nesting depth.  The scan
#: only distinguishes 0 from >0; the cap keeps the lattice finite so a loop
#: that disables without a matching enable still reaches a fixpoint.
_DEPTH_CAP = IRQ_DEPTH_CAP


@dataclass
class Violation:
    """One potential blocking-in-atomic-context bug."""

    caller: str
    callee: str
    location: SourceLocation
    path: list[str] = field(default_factory=list)
    via_indirect: bool = False
    silenced_by_check: bool = False

    def describe(self) -> str:
        chain = " -> ".join(self.path) if self.path else f"{self.caller} -> {self.callee}"
        kind = "indirect" if self.via_indirect else "direct"
        return (f"{self.location}: {self.caller} may call blocking function "
                f"{self.callee} with interrupts disabled ({kind} path: {chain})")


@dataclass
class AtomicCallSite:
    """A call made while interrupts are disabled."""

    caller: str
    callee: str
    location: SourceLocation
    indirect: bool
    conditional_blocks: bool = False   # a blocking_if_wait callee passed GFP_WAIT


@dataclass
class BlockStopResult:
    """Everything the BlockStop analysis produced."""

    graph: CallGraph
    blocking: BlockingInfo
    violations: list[Violation] = field(default_factory=list)
    atomic_call_sites: list[AtomicCallSite] = field(default_factory=list)
    irq_handlers: set[str] = field(default_factory=set)
    asm_functions: set[str] = field(default_factory=set)
    precision: Precision = Precision.TYPE_BASED
    runtime_checks: RuntimeCheckSet = field(default_factory=RuntimeCheckSet)
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def reported(self) -> list[Violation]:
        return [v for v in self.violations if not v.silenced_by_check]

    @property
    def silenced(self) -> list[Violation]:
        return [v for v in self.violations if v.silenced_by_check]


def find_irq_handlers(program: Program) -> set[str]:
    """Functions registered as interrupt handlers (run in IRQ context).

    Shared artifact: BlockStop seeds its atomic-region scan with these, and
    lockcheck uses them as its set of interrupt-context functions.
    """
    handlers: set[str] = set()
    for unit in program.units:
        for decl in unit.decls:
            if not isinstance(decl, ast.FuncDef):
                continue
            for node in program.syntax_of(decl).calls:
                if (isinstance(node.func, ast.Ident)
                        and node.func.name in IRQ_HANDLER_REGISTRATION):
                    for arg in node.args:
                        name = _function_name_of(arg, program)
                        if name is not None:
                            handlers.add(name)
    return handlers


class BlockStopChecker:
    """Run the whole BlockStop pipeline over a program.

    The call graph, blocking summary and interrupt-handler set can either be
    derived from scratch (the standalone entry point) or supplied pre-built by
    :class:`repro.engine.AnalysisEngine`, which shares them between analyses.
    """

    def __init__(self, program: Program,
                 precision: Precision = Precision.TYPE_BASED,
                 runtime_checks: RuntimeCheckSet | None = None,
                 graph: CallGraph | None = None,
                 blocking: BlockingInfo | None = None,
                 irq_handlers: set[str] | None = None,
                 summaries: dict[str, FunctionSummary] | None = None,
                 consts: dict[str, FunctionFacts | None] | None = None) -> None:
        self.program = program
        self.precision = precision
        self.runtime_checks = runtime_checks or RuntimeCheckSet()
        self._graph = graph
        self._blocking = blocking
        self._irq_handlers = irq_handlers
        self._summaries = summaries
        #: Per-function constant facts (engine artifact or lazily solved).
        self.consts = consts if consts is not None else {}
        self.summaries: dict[str, FunctionSummary] = {}

    def run(self) -> BlockStopResult:
        graph = self._graph
        blocking = self._blocking
        irq_handlers = self._irq_handlers
        summaries = self._summaries
        if graph is None:
            graph, indirect_calls = build_direct_callgraph(self.program)
            pointsto = FunctionPointerAnalysis(self.program, self.precision)
            pointsto.collect()
            pointsto.resolve(graph, indirect_calls)
        if summaries is None:
            summaries = solve_summaries(self.program, graph)
        self.summaries = summaries
        if blocking is None:
            blocking = derive_blocking(self.program, graph, summaries)
        if irq_handlers is None:
            irq_handlers = find_irq_handlers(self.program)

        result = BlockStopResult(graph=graph, blocking=blocking,
                                 precision=self.precision,
                                 runtime_checks=self.runtime_checks,
                                 summaries=summaries)
        result.irq_handlers = set(irq_handlers)
        self._scan_atomic_regions(result, blocking)
        # (function, location) ordering: the rendered report must not depend
        # on dict iteration or CFG block numbering details.
        result.atomic_call_sites.sort(
            key=lambda s: (s.caller, s.location.filename, s.location.line,
                           s.location.column, s.callee))
        self._check_violations(result)
        result.violations.sort(
            key=lambda v: (v.caller, v.location.filename, v.location.line,
                           v.location.column, v.callee))
        return result

    # -- atomic-region scan -------------------------------------------------------

    def _scan_atomic_regions(self, result: BlockStopResult,
                             blocking: BlockingInfo) -> None:
        for name, func in self.program.functions.items():
            syntax = self.program.syntax(name)
            if syntax.has_asm:
                result.asm_functions.add(name)
            starts_atomic = name in result.irq_handlers
            self._scan_function(result, name, func, syntax, starts_atomic,
                                blocking)

    def _scan_function(self, result: BlockStopResult, name: str,
                       func: ast.FuncDef, syntax: FunctionSyntax,
                       starts_atomic: bool, blocking: BlockingInfo) -> None:
        """Track the interrupt flag flow-sensitively over the function's CFG.

        The abstract state is a counter of nested disables.  The join at
        merge points is ``max`` — the paper's conservative "assume atomic if
        any path is atomic" semantics — but, unlike the old linear statement
        scan, a ``local_irq_save`` inside one arm of an ``if``/``else`` no
        longer poisons the sibling arm, and an early return that re-enables
        interrupts no longer hides the atomic region on the fall-through
        path.  Loops iterate to a fixpoint; the depth is capped so an
        unmatched disable inside a loop body still converges.  These
        per-function atomic regions feed the interprocedural step (callees
        of an atomic call site inherit atomic context through the graph).

        Callee IRQ deltas from the function summaries are threaded through
        the same counter: a call to a helper whose summary says it returns
        with interrupts disabled raises the depth exactly as a direct
        ``local_irq_disable`` would, so a blocking call that is atomic only
        *because of* the callee's delta is found in the caller.

        The solve is condition-aware: constant-false branch edges (a
        ``#define DEBUG 0`` debug arm inside the atomic region) are
        infeasible, so calls in provably-dead arms are never recorded as
        atomic call sites.
        """
        if not starts_atomic and not self._can_raise_depth(syntax):
            return      # depth can never leave 0: skip the CFG + solve cost
        cfg = build_cfg(func)
        func_consts = facts_of(func, cache=self.consts, cfg=cfg, syntax=syntax)
        entry_depth = 1 if starts_atomic else 0

        def transfer(block, depth: int) -> int:
            for element in block.elements:
                depth = self._apply_element(element.expr, depth)
            return depth

        in_states = solve_forward(cfg, transfer, max, entry_state=entry_depth,
                                  edge_refine=refined_edges(func_consts))
        for block, depth in reachable_blocks(cfg, in_states):
            for element in block.elements:
                depth = self._apply_element(element.expr, depth,
                                            result=result, caller=name,
                                            blocking=blocking)

    def _can_raise_depth(self, syntax: FunctionSyntax) -> bool:
        """Whether any call in the function can push the disable depth above 0."""
        for node in syntax.calls:
            if not isinstance(node.func, ast.Ident):
                continue
            name = node.func.name
            if name in IRQ_DISABLE_CALLS:
                return True
            if name not in IRQ_ENABLE_CALLS:
                summary = self.summaries.get(name)
                if summary is not None and summary.irq_delta > 0:
                    return True
        return False

    def _apply_element(self, expr: ast.Expr | None, depth: int,
                       result: BlockStopResult | None = None,
                       caller: str | None = None,
                       blocking: BlockingInfo | None = None) -> int:
        """Step the disable depth over every call inside ``expr``.

        With ``result`` supplied this is the recording pass: calls made at
        depth > 0 are appended as atomic call sites.  A named callee that is
        neither a disable nor an enable primitive contributes its summary's
        IRQ delta *after* the call site itself is recorded (the call starts
        in the caller's current context; what the callee does internally is
        the callee's own scan's business).
        """
        if expr is None:
            return depth
        for node in walk(expr):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if isinstance(target, ast.Ident):
                callee = target.name
                if callee in IRQ_DISABLE_CALLS:
                    depth = min(depth + 1, _DEPTH_CAP)
                    continue
                if callee in IRQ_ENABLE_CALLS:
                    depth = max(0, depth - 1)
                    continue
                if depth > 0 and result is not None:
                    conditional = (callee in blocking.conditional_seeds
                                   and call_site_may_block(self.program, blocking, node))
                    result.atomic_call_sites.append(AtomicCallSite(
                        caller=caller, callee=callee,
                        location=node.location, indirect=False,
                        conditional_blocks=conditional))
                summary = self.summaries.get(callee)
                if summary is not None and summary.irq_delta:
                    depth = max(0, min(depth + summary.irq_delta, _DEPTH_CAP))
            else:
                if depth > 0 and result is not None:
                    # Indirect call in atomic context: all resolved callees
                    # from this caller are candidates.
                    result.atomic_call_sites.append(AtomicCallSite(
                        caller=caller, callee="<indirect>",
                        location=node.location, indirect=True))
        return depth

    # -- violation detection --------------------------------------------------------

    def _check_violations(self, result: BlockStopResult) -> None:
        blocking = result.blocking
        graph = result.graph
        blocking_set = set(blocking.may_block)
        for site in result.atomic_call_sites:
            callees: list[tuple[str, bool]] = []
            if site.indirect:
                resolved = [s.callee for s in graph.call_sites
                            if s.caller == site.caller and s.indirect]
                callees = [(callee, True) for callee in sorted(set(resolved))]
            else:
                callees = [(site.callee, False)]
            for callee, indirect in callees:
                if callee in blocking.conditional_seeds and not site.indirect:
                    # Allocator-style callee: blocking only when this call
                    # site can pass GFP_WAIT.
                    if not site.conditional_blocks:
                        continue
                elif callee not in blocking_set:
                    continue
                else:
                    reachable_blockers = (graph.reachable_from([callee])
                                          & (set(blocking.seeds)
                                             | set(blocking.conditional_seeds)))
                    if not reachable_blockers and callee not in blocking.seeds:
                        continue
                path = graph.shortest_path(callee, blocking.seeds | {callee})
                silenced = callee in self.runtime_checks
                result.violations.append(Violation(
                    caller=site.caller, callee=callee, location=site.location,
                    path=[site.caller, *path] if path else [site.caller, callee],
                    via_indirect=indirect, silenced_by_check=silenced))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _function_name_of(expr: ast.Expr, program: Program) -> str | None:
    if isinstance(expr, ast.Ident) and expr.name in program.functions:
        return expr.name
    if isinstance(expr, ast.Unary) and expr.op == "&":
        return _function_name_of(expr.operand, program)
    if isinstance(expr, ast.Cast):
        return _function_name_of(expr.operand, program)
    return None


def check_blockstop(ctx: AnalysisContext,
                    precision: Precision = Precision.TYPE_BASED,
                    runtime_checks: RuntimeCheckSet | None = None,
                    ) -> BlockStopResult:
    """Run the full BlockStop analysis over a shared analysis context.

    This is the primary entry point: the engine builds one
    :class:`repro.dataflow.AnalysisContext` per run and every checker
    consumes the same bundle.  Prebuilt ``blocking`` facts and the IRQ
    handler set travel in ``ctx.extras`` (they have no cross-checker home);
    anything missing is computed on demand exactly as before.
    """
    extras = ctx.extras
    return BlockStopChecker(ctx.program, precision, runtime_checks,
                            graph=ctx.call_graph,
                            blocking=extras.get("blocking"),
                            irq_handlers=extras.get("irq_handlers"),
                            summaries=ctx.summaries,
                            consts=ctx.facts).run()


def run_blockstop(program: Program,
                  precision: Precision = Precision.TYPE_BASED,
                  runtime_checks: RuntimeCheckSet | None = None,
                  graph: CallGraph | None = None,
                  blocking: BlockingInfo | None = None,
                  irq_handlers: set[str] | None = None,
                  summaries: dict[str, FunctionSummary] | None = None,
                  consts: dict[str, FunctionFacts | None] | None = None,
                  ) -> BlockStopResult:
    """Convenience wrapper for scripts and tests: loose artifacts in, one
    :class:`AnalysisContext` out, delegated to :func:`check_blockstop`."""
    extras: dict = {}
    if blocking is not None:
        extras["blocking"] = blocking
    if irq_handlers is not None:
        extras["irq_handlers"] = irq_handlers
    ctx = AnalysisContext(program=program, call_graph=graph,
                          summaries=summaries, facts=consts, extras=extras)
    return check_blockstop(ctx, precision, runtime_checks)
