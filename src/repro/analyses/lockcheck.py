"""Future analysis (§3.1): hybrid lock-safety checking, now interprocedural.

Two properties are checked statically over each function's lock behaviour,
then summarised program-wide:

* **Lock ordering** — if one function acquires lock A and then lock B while a
  different code path acquires B and then A, the pair is reported as a
  potential deadlock (inconsistent lock order).
* **IRQ discipline** — a spinlock that is taken from interrupt context must
  only be taken with interrupts disabled (``spin_lock_irqsave``) in process
  context; taking it with plain ``spin_lock`` is reported.

The per-function scan is flow-sensitive: it runs on the shared CFG +
fixpoint solver (:mod:`repro.dataflow`).  The abstract state pairs the
*must-hold* multiset of locks — ``(lock, count)`` pairs whose join at merge
points is intersection with minimum counts — with a *may-hold* set (join =
union) that tracks locks possibly held on some path.  The solve is
condition-aware (:mod:`repro.dataflow.consts`): branch edges whose
condition folds to a constant false are infeasible, so an acquisition in an
``if (0)``-guarded arm never reaches the merge, the exit state, or any
caller's summary.

Since the interprocedural summary framework
(:mod:`repro.dataflow.interproc`) the scan also applies each callee's
:class:`~repro.dataflow.summaries.FunctionSummary` at its call site, which
adds two whole-program findings the paper's sound-analysis story needs:

* ``returns-with-lock-held`` — a lock may-held at some return but not
  must-held at every return: an early-return path leaked it.  The leak
  propagates: a caller of the leaking helper inherits the may-held lock and
  is reported too (deliberate lock wrappers, which hold on *every* path,
  are their callers' contract and are not reported).
* interprocedural ``double-acquire`` — a call made while holding lock L to
  a callee whose summary says it may (transitively) acquire L again:
  self-deadlock on a non-recursive spinlock, invisible to any purely
  intraprocedural scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow import build_cfg, reachable_blocks, solve_forward
from ..dataflow.consts import refined_edges
from ..dataflow.context import AnalysisContext
from ..dataflow.domains import FunctionFacts, facts_of
from ..dataflow.summaries import (
    LOCK_ACQUIRE_CALLS,
    LOCK_RELEASE_CALLS,
    FunctionSummary,
    lock_name_of,
)
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import SourceLocation
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk

#: Legacy names (pre-summary-framework); the tables live in the shared
#: summary domain now so the interprocedural sweep and this checker agree.
ACQUIRE_CALLS = LOCK_ACQUIRE_CALLS
RELEASE_CALLS = LOCK_RELEASE_CALLS

#: Abstract state: (must-hold multiset in first-acquisition order,
#: may-hold lock-name frozenset).  Immutable so the solver compares states.
LockState = tuple[tuple[tuple[str, int], ...], frozenset]

_ENTRY_STATE: LockState = ((), frozenset())


@dataclass(frozen=True)
class LockAcquisition:
    """One lock acquisition site."""

    function: str
    lock: str
    irqsave: bool
    held_before: tuple[str, ...]
    location: SourceLocation = field(default_factory=SourceLocation)
    reacquired: bool = False    # the same lock was already held at this site
    via_callee: str = ""        # summary-applied: the callee that acquires


@dataclass(frozen=True)
class LockLeak:
    """A function that may return with a lock still held."""

    function: str
    lock: str
    location: SourceLocation = field(default_factory=SourceLocation)
    via_callee: str = ""        # inherited from this callee's leak, if any


@dataclass
class LockFacts:
    """Everything one scan pass collected (shard payload granularity)."""

    acquisitions: list[LockAcquisition] = field(default_factory=list)
    interproc_acquires: list[LockAcquisition] = field(default_factory=list)
    leaks: list[LockLeak] = field(default_factory=list)


@dataclass
class LockReport:
    """Result of the lock-safety analysis."""

    acquisitions: list[LockAcquisition] = field(default_factory=list)
    order_pairs: set[tuple[str, str]] = field(default_factory=set)
    order_violations: list[tuple[str, str]] = field(default_factory=list)
    irq_violations: list[LockAcquisition] = field(default_factory=list)
    irq_context_locks: set[str] = field(default_factory=set)
    double_acquires: list[LockAcquisition] = field(default_factory=list)
    leaked_returns: list[LockLeak] = field(default_factory=list)

    @property
    def deadlock_free(self) -> bool:
        return not self.order_violations and not self.double_acquires


def _lock_name(expr: ast.Expr) -> str:
    """A stable name for the lock argument expression."""
    return lock_name_of(expr)


def _join(a: LockState, b: LockState) -> LockState:
    """Must-hold intersection at minimum depth; may-hold union."""
    must_a, may_a = a
    must_b, may_b = b
    counts = dict(must_b)
    must = tuple((lock, min(count, counts[lock]))
                 for lock, count in must_a if lock in counts)
    return (must, may_a | may_b)


class _FunctionScan:
    """One function's flow-sensitive lock scan (solve + recording pass)."""

    def __init__(self, function: str,
                 summaries: dict[str, FunctionSummary] | None) -> None:
        self.function = function
        self.summaries = summaries or {}
        self.facts: LockFacts | None = None    # set during the recording pass
        #: Where each may-held lock first appeared (acquisition or call site).
        self.may_origin: dict[str, tuple[SourceLocation, str]] = {}

    def apply_element(self, state: LockState,
                      expr: ast.Expr | None) -> LockState:
        """Step the state over every call inside ``expr`` (in walk order)."""
        if expr is None:
            return state
        for node in walk(expr):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Ident):
                continue
            state = self._apply_call(state, node)
        return state

    def _apply_call(self, state: LockState, node: ast.Call) -> LockState:
        must, may = state
        callee = node.func.name
        if callee in ACQUIRE_CALLS and node.args:
            lock = _lock_name(node.args[0])
            held = dict(must)
            if self.facts is not None:
                self.facts.acquisitions.append(LockAcquisition(
                    function=self.function, lock=lock,
                    irqsave=ACQUIRE_CALLS[callee],
                    held_before=tuple(name for name, _ in must),
                    location=node.location,
                    reacquired=lock in held))
                self.may_origin.setdefault(lock, (node.location, ""))
            if lock in held:
                must = tuple((name, count + 1 if name == lock else count)
                             for name, count in must)
            else:
                must = must + ((lock, 1),)
            return (must, may | {lock})
        if callee in RELEASE_CALLS and node.args:
            lock = _lock_name(node.args[0])
            must = tuple((name, count - 1 if name == lock else count)
                         for name, count in must
                         if name != lock or count > 1)
            return (must, may - {lock})
        summary = self.summaries.get(callee)
        if summary is None or summary.trivial_lock_effect:
            return state
        held = dict(must)
        if self.facts is not None:
            # Interprocedural double-acquire: the callee may (transitively)
            # take a lock this caller already holds.
            for lock in summary.acquires:
                if held.get(lock, 0) > 0:
                    self.facts.interproc_acquires.append(LockAcquisition(
                        function=self.function, lock=lock,
                        irqsave=False,
                        held_before=tuple(name for name, _ in must),
                        location=node.location,
                        reacquired=True, via_callee=callee))
        for lock, count in summary.locks_released:
            must = tuple((name, c - count if name == lock else c)
                         for name, c in must
                         if name != lock or c > count)
            may = may - {lock}
        for lock, count in summary.locks_held:
            if lock in dict(must):
                must = tuple((name, c + count if name == lock else c)
                             for name, c in must)
            else:
                must = must + ((lock, count),)
            may = may | {lock}
            if self.facts is not None:
                self.may_origin.setdefault(lock, (node.location, callee))
        for lock in summary.may_return_held:
            may = may | {lock}
            if self.facts is not None:
                self.may_origin.setdefault(lock, (node.location, callee))
        return (must, may)


def check_locks(ctx: AnalysisContext) -> LockFacts:
    """Collect acquisitions, interprocedural re-acquisitions, and leaks.

    This is the primary entry point, consuming the engine's shared
    :class:`repro.dataflow.AnalysisContext`.  Purely per-function work:
    ``ctx.functions`` restricts the scan so the engine can shard it by
    translation unit and concatenate the shard results.  ``held_before`` is
    flow-sensitive must-hold information: a lock acquired on only one path
    to the site is not included.  With ``ctx.summaries`` supplied, callee
    lock deltas are applied at call sites; without them the scan degrades to
    the purely intraprocedural behaviour.  ``ctx.facts`` maps function
    names to solved condition facts (the engine's keyed artifact); missing
    entries are solved on demand, and the resulting infeasible-edge set
    prunes the solve — an acquisition inside an ``if (0)`` arm never
    reaches the exit state, so it is neither recorded nor reported leaked.
    """
    summaries = ctx.summaries or {}
    consts_cache = ctx.facts if ctx.facts is not None else {}
    facts = LockFacts()
    for name, func in ctx.program.functions_subset(ctx.functions):
        syntax = ctx.program.syntax(name)
        if not _scan_relevant(syntax, summaries):
            continue    # nothing can move the lock state: skip CFG + solve
        scan = _FunctionScan(name, summaries)
        cfg = build_cfg(func)
        func_consts = facts_of(func, cache=consts_cache, cfg=cfg, syntax=syntax)

        def transfer(block, state, _scan=scan):
            for element in block.elements:
                state = _scan.apply_element(state, element.expr)
            return state

        in_states = solve_forward(cfg, transfer, _join,
                                  entry_state=_ENTRY_STATE,
                                  edge_refine=refined_edges(func_consts))
        scan.facts = facts
        for block, state in reachable_blocks(cfg, in_states):
            for element in block.elements:
                state = scan.apply_element(state, element.expr)
        exit_state = in_states[cfg.exit]
        if exit_state is not None:
            must_exit, may_exit = exit_state
            held_on_all = {lock for lock, count in must_exit if count > 0}
            for lock in sorted(may_exit - held_on_all):
                location, via = scan.may_origin.get(
                    lock, (func.location, ""))
                facts.leaks.append(LockLeak(
                    function=name, lock=lock, location=location,
                    via_callee=via))
    return facts


def collect_lock_facts(program: Program,
                       functions: list[str] | None = None,
                       summaries: dict[str, FunctionSummary] | None = None,
                       consts: dict[str, FunctionFacts | None] | None = None,
                       ) -> LockFacts:
    """Convenience wrapper for scripts and tests: loose artifacts in, one
    :class:`AnalysisContext` out, delegated to :func:`check_locks`."""
    return check_locks(AnalysisContext(program=program, functions=functions,
                                       summaries=summaries, facts=consts))


def _scan_relevant(syntax: FunctionSyntax,
                   summaries: dict[str, FunctionSummary]) -> bool:
    """Whether any call in the function can move the lock state."""
    for node in syntax.calls:
        if not isinstance(node.func, ast.Ident):
            continue
        name = node.func.name
        if name in ACQUIRE_CALLS:
            return True
        summary = summaries.get(name)
        if summary is not None and not summary.trivial_lock_effect:
            return True
    return False


def collect_acquisitions(program: Program,
                         functions: list[str] | None = None,
                         summaries: dict[str, FunctionSummary] | None = None,
                         ) -> list[LockAcquisition]:
    """Backwards-compatible view of :func:`collect_lock_facts`."""
    return collect_lock_facts(program, functions, summaries).acquisitions


def _acquisition_sort_key(acquisition: LockAcquisition) -> tuple:
    return (acquisition.function, acquisition.location.filename,
            acquisition.location.line, acquisition.location.column,
            acquisition.lock)


def _leak_sort_key(leak: LockLeak) -> tuple:
    return (leak.function, leak.location.filename, leak.location.line,
            leak.location.column, leak.lock)


def derive_report(acquisitions: list[LockAcquisition],
                  irq_functions: set[str] | None = None,
                  interproc_acquires: list[LockAcquisition] | None = None,
                  leaks: list[LockLeak] | None = None) -> LockReport:
    """Derive the program-wide lock report from collected facts.

    Findings lists come out sorted by (function, location) so that shard
    merge order never changes the rendered report.  Summary-applied
    re-acquisitions join the intraprocedural ones in ``double_acquires``;
    they deliberately do *not* feed ``order_pairs`` (callee acquisition
    order is not observed, only membership).
    """
    report = LockReport()
    irq_functions = irq_functions or set()
    report.acquisitions = list(acquisitions)
    for acquisition in report.acquisitions:
        for earlier in acquisition.held_before:
            if earlier != acquisition.lock:
                report.order_pairs.add((earlier, acquisition.lock))
        if acquisition.function in irq_functions:
            report.irq_context_locks.add(acquisition.lock)
        if acquisition.reacquired:
            report.double_acquires.append(acquisition)
    report.double_acquires.extend(interproc_acquires or [])
    report.leaked_returns = sorted(leaks or [], key=_leak_sort_key)
    # Inconsistent ordering: both (A, B) and (B, A) observed.
    for first, second in sorted(report.order_pairs):
        if (second, first) in report.order_pairs and (second, first) > (first, second):
            report.order_violations.append((first, second))
    # IRQ discipline: locks used in interrupt context must always be taken
    # with interrupts disabled in process context.
    for acquisition in report.acquisitions:
        if (acquisition.lock in report.irq_context_locks
                and not acquisition.irqsave
                and acquisition.function not in irq_functions):
            report.irq_violations.append(acquisition)
    report.order_violations.sort()
    report.irq_violations.sort(key=_acquisition_sort_key)
    report.double_acquires.sort(key=_acquisition_sort_key)
    return report


def analyse_locks(program: Program,
                  irq_functions: set[str] | None = None,
                  summaries: dict[str, FunctionSummary] | None = None,
                  consts: dict[str, FunctionFacts | None] | None = None,
                  ) -> LockReport:
    """Run the lock-safety analysis over every function of ``program``.

    When ``summaries`` is not supplied, the interprocedural summaries are
    computed here (points-to-resolved call graph, SCC-ordered sweep) so the
    standalone entry point reports exactly what the engine does.
    """
    if summaries is None:
        summaries = _build_summaries(program)
    facts = collect_lock_facts(program, summaries=summaries, consts=consts)
    return derive_report(facts.acquisitions, irq_functions,
                         interproc_acquires=facts.interproc_acquires,
                         leaks=facts.leaks)


def _build_summaries(program: Program) -> dict[str, FunctionSummary]:
    from ..blockstop.callgraph import build_direct_callgraph
    from ..blockstop.pointsto import FunctionPointerAnalysis, Precision
    from ..dataflow.interproc import solve_summaries

    graph, indirect_calls = build_direct_callgraph(program)
    pointsto = FunctionPointerAnalysis(program, Precision.TYPE_BASED)
    pointsto.collect()
    pointsto.resolve(graph, indirect_calls)
    return solve_summaries(program, graph)
