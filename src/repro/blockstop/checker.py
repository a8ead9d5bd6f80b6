"""The BlockStop checker: no blocking calls while interrupts are disabled.

The analysis proceeds in four steps, the first two of which are the
pipeline's shared artifacts (:mod:`repro.engine.artifacts`) that every
checker reads:

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
from typing import TYPE_CHECKING

from ..dataflow import build_cfg, reachable_blocks, solve_forward
from ..dataflow.consts import refined_edges
from ..dataflow.domains import facts_of
from ..dataflow.summaries import IRQ_DEPTH_CAP, IRQ_DISABLE_CALLS, IRQ_ENABLE_CALLS
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import SourceLocation
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk
from .blocking import BlockingInfo, call_site_may_block
from .callgraph import CallGraph
from .pointsto import Precision
from .runtime_checks import RuntimeCheckSet

if TYPE_CHECKING:  # the engine imports this module
    from ..engine.artifacts import SharedArtifacts

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
    """Run BlockStop over the pipeline's artifacts.

    The call graph, the blocking facts, the IRQ-handler set, the summaries,
    the constant facts and the points-to precision all come from one
    :class:`~repro.engine.SharedArtifacts` bundle: the checker derives
    none of them, so its report is the engine's by construction.
    """

    def __init__(self, artifacts: SharedArtifacts,
                 runtime_checks: RuntimeCheckSet | None = None) -> None:
        self.artifacts = artifacts
        self.program = artifacts.program
        self.runtime_checks = runtime_checks or RuntimeCheckSet()
        self.summaries = artifacts.summaries

    def run(self) -> BlockStopResult:
        """Every step: the atomic call sites of the whole program, then
        the violations among them."""
        result = self.scan()
        check_violations(result)
        return result

    def scan(self, functions: list[str] | None = None) -> BlockStopResult:
        """Step 3 for ``functions`` (all when None): a result holding the
        artifacts and those functions' atomic call sites, no violations.

        A function's scan reads its own body and constant facts, its
        callees' summaries, the IRQ-handler set and the blocking seeds, so
        the engine runs it per translation unit and checks the union of
        the units' call sites once (:func:`check_violations`).
        """
        artifacts = self.artifacts
        result = BlockStopResult(graph=artifacts.graph,
                                 blocking=artifacts.blocking,
                                 precision=artifacts.precision,
                                 runtime_checks=self.runtime_checks)
        result.irq_handlers = set(artifacts.irq_handlers)
        self._scan_atomic_regions(result, artifacts.blocking, functions)
        return result

    # -- atomic-region scan -------------------------------------------------------

    def _scan_atomic_regions(self, result: BlockStopResult,
                             blocking: BlockingInfo,
                             functions: list[str] | None) -> None:
        for name, func in self.program.functions_subset(functions):
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
        func_consts = facts_of(func, cache=self.artifacts.consts, cfg=cfg,
                               syntax=syntax)
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


# ---------------------------------------------------------------------------
# Violation detection
# ---------------------------------------------------------------------------

def check_violations(result: BlockStopResult) -> None:
    """Step 4 over ``result.atomic_call_sites``: sort them, then record
    every site whose callee may block as a violation, silenced when the
    callee carries the run-time assertion."""
    # (function, location) ordering: the rendered report must not depend
    # on dict iteration, CFG block numbering or shard order.
    result.atomic_call_sites.sort(
        key=lambda s: (s.caller, s.location.filename, s.location.line,
                       s.location.column, s.callee))
    blocking = result.blocking
    graph = result.graph
    blocking_set = set(blocking.may_block)
    for site in result.atomic_call_sites:
        if site.indirect:
            callees = [(callee, True)
                       for callee in sorted(graph.indirect.get(site.caller, ()))]
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
            silenced = callee in result.runtime_checks
            result.violations.append(Violation(
                caller=site.caller, callee=callee, location=site.location,
                path=[site.caller, *path] if path else [site.caller, callee],
                via_indirect=indirect, silenced_by_check=silenced))
    result.violations.sort(
        key=lambda v: (v.caller, v.location.filename, v.location.line,
                       v.location.column, v.callee))


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


def check_blockstop(artifacts: SharedArtifacts,
                    runtime_checks: RuntimeCheckSet | None = None,
                    ) -> BlockStopResult:
    """The full BlockStop analysis over the pipeline's artifacts, at their
    points-to precision: every atomic call site and every violation."""
    return BlockStopChecker(artifacts, runtime_checks).run()
