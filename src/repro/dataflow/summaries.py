"""Per-function summaries: the interprocedural lattice element.

A :class:`FunctionSummary` condenses everything a *caller* needs to know
about a callee into a small immutable record:

* **lock delta** — the net must-hold lock change from entry to return
  (``locks_held``), the locks it may release on the caller's behalf
  (``locks_released``), the locks possibly still held at *some* return
  (``may_return_held``) and every lock it may transitively acquire
  (``acquires``);
* **IRQ delta** — the net may-change to the interrupt-disable depth
  (``irq_delta``; ``+1`` for a helper that returns with IRQs off);
* **may-block** — whether the function can reach a blocking primitive,
  the summary that replaces the old whole-program backwards propagation;
* **error-return set** — the negative error codes the function may return,
  directly or by propagating a callee's error return;
* **frame size / stack depth** — the stack-check facts, so the deepest
  call chain falls out of the same bottom-up sweep.

Summaries are computed bottom-up over the SCC condensation of the call
graph (:mod:`repro.dataflow.interproc`); recursion converges by iterating
each SCC to a fixpoint of the (finite, capped) lattice.  This module is
deliberately independent of :mod:`repro.blockstop` — the primitive tables
and the GFP constant folding live here and are re-exported by the checkers
that historically owned them.

Since the condition-aware refactor the per-function computation runs over
the *pruned* CFG (:mod:`repro.dataflow.consts`): a lock acquired, a
blocking primitive reached, or an error code returned only inside a
constant-false arm contributes nothing to the summary, so the imprecision
never compounds through callers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..annotations.attrs import AnnotationKind
from ..machine.interpreter import ctype_size
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.pretty import render_expression
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk
from .cfg import RETURN, build_cfg
from .consts import eval_const, refined_edges
from .domains import FunctionFacts, facts_of
from .solver import solve_forward

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a package cycle
    from ..blockstop.callgraph import CallGraph

# ---------------------------------------------------------------------------
# Primitive tables (single source of truth; the checkers re-export these)
# ---------------------------------------------------------------------------

#: Calls that disable interrupts until the matching enable.
IRQ_DISABLE_CALLS = frozenset(
    {
        "local_irq_disable",
        "local_irq_save",
        "spin_lock_irqsave",
        "spin_lock_irq",
        "__hw_cli",
        "cli",
    }
)
IRQ_ENABLE_CALLS = frozenset(
    {
        "local_irq_enable",
        "local_irq_restore",
        "spin_unlock_irqrestore",
        "spin_unlock_irq",
        "__hw_sti",
        "sti",
    }
)

#: Lock acquisition primitives, mapped to whether they also disable IRQs.
LOCK_ACQUIRE_CALLS = {"spin_lock": False, "spin_lock_irqsave": True, "spin_lock_irq": True}
LOCK_RELEASE_CALLS = frozenset({"spin_unlock", "spin_unlock_irqrestore", "spin_unlock_irq"})

#: Bit the corpus uses for "this allocation may wait" (mirrors __GFP_WAIT).
GFP_WAIT_BIT = 0x10

#: Builtins that are known to never sleep (the machine executes them inline).
NONBLOCKING_BUILTINS = frozenset(
    {
        "memset",
        "memcpy",
        "memmove",
        "memcmp",
        "strlen",
        "strcpy",
        "strncpy",
        "strcmp",
        "strncmp",
        "printk",
        "panic",
        "BUG",
        "WARN",
        "__raw_alloc",
        "__raw_free",
        "__raw_size",
        "__hw_cli",
        "__hw_sti",
        "__hw_save_flags",
        "__hw_restore_flags",
        "__hw_irqs_disabled",
        "__hw_in_interrupt",
        "__hw_context_switch",
        "__hw_syscall_overhead",
        "__hw_cycles",
        "smp_processor_id",
        "__copy_block",
        "__hw_might_sleep",
        "__ccount_delay_begin",
        "__ccount_delay_end",
        "__ccount_rtti",
        "__ccount_rc_inc",
        "__ccount_rc_dec",
        "__ccount_memcpy",
        "__ccount_memset",
        "__ccount_ptr_write",
        "__ccount_refcount",
        "__deputy_check_ptr",
        "__deputy_check_nonnull",
        "__deputy_check_index",
        "__deputy_check_count",
        "__deputy_check_nt",
        "__deputy_check_union",
        "__deputy_check_cast",
        "__blockstop_assert_irqs_enabled",
    }
)

#: Widening caps keeping the summary lattice finite under recursion.
IRQ_DEPTH_CAP = 64
LOCK_COUNT_CAP = 8

#: Fixed per-call stack overhead (saved registers, return address), in bytes.
FRAME_OVERHEAD = 32


def flags_may_wait(call: ast.Call) -> bool:
    """Conservatively decide whether an allocator call may pass GFP_WAIT."""
    if not call.args:
        return True
    constant = constant_of(call.args[-1])
    if constant is None:
        return True
    return bool(constant & GFP_WAIT_BIT)


def constant_of(expr: ast.Expr) -> int | None:
    """Fold an integer-constant expression, or None when it is not one.

    Delegates to the constants lattice's evaluator
    (:func:`repro.dataflow.consts.eval_const`) with an empty environment —
    one folding engine for GFP flags, error codes and branch conditions.
    """
    return eval_const(expr)


# ---------------------------------------------------------------------------
# The summary record
# ---------------------------------------------------------------------------

#: Sorted (lock name, non-zero count) pairs; immutable so summaries hash.
LockDelta = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FunctionSummary:
    """Everything a caller needs to know about one function."""

    name: str = ""
    defined: bool = True
    may_block: bool = False
    irq_delta: int = 0
    locks_held: LockDelta = ()  # must-held at return, net of entry
    locks_released: LockDelta = ()  # may-released beyond own acquisitions
    may_return_held: tuple[str, ...] = ()
    acquires: tuple[str, ...] = ()  # locks transitively may-acquired
    error_returns: tuple[int, ...] = ()
    frame_size: int = 0
    stack_depth: int = 0  # frame + deepest bounded callee chain

    @property
    def trivial_lock_effect(self) -> bool:
        return not (self.locks_held or self.locks_released or self.may_return_held or self.acquires)

    @property
    def returns_error(self) -> bool:
        return bool(self.error_returns)

    def describe(self) -> str:
        parts = []
        if self.may_block:
            parts.append("may-block")
        if self.irq_delta:
            parts.append(f"irq{self.irq_delta:+d}")
        if self.locks_held:
            parts.append("holds " + ",".join(f"{l}x{c}" for l, c in self.locks_held))
        if self.locks_released:
            parts.append("releases " + ",".join(f"{l}x{c}" for l, c in self.locks_released))
        if self.may_return_held:
            leaked = set(self.may_return_held) - {l for l, _ in self.locks_held}
            if leaked:
                parts.append("may-leak " + ",".join(sorted(leaked)))
        if self.error_returns:
            parts.append("errors " + ",".join(str(code) for code in self.error_returns))
        parts.append(f"frame {self.frame_size}B depth {self.stack_depth}B")
        return "; ".join(parts)


BOTTOM_SUMMARY = FunctionSummary(name="<bottom>", defined=False)


# ---------------------------------------------------------------------------
# Summary-computation context
# ---------------------------------------------------------------------------


@dataclass
class SummaryContext:
    """Whole-program facts the per-function computation consumes.

    ``resolved_indirect`` maps a caller to the points-to-resolved callees of
    its indirect call sites (the call graph stores them merged per caller,
    and the summary computation applies the same granularity).
    """

    program: Program
    blocking_seeds: frozenset[str] = frozenset()
    conditional_seeds: frozenset[str] = frozenset()
    errcode_annotated: frozenset[str] = frozenset()
    resolved_indirect: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Per-function constant facts; seeded from the engine's keyed artifact
    #: when available, filled lazily (memoized) otherwise.
    consts: dict[str, FunctionFacts | None] = field(default_factory=dict)


def build_context(
    program: Program,
    graph: "CallGraph",
    consts: dict[str, FunctionFacts | None] | None = None,
) -> SummaryContext:
    """Derive the summary-computation context from program + call graph."""
    blocking: set[str] = set()
    conditional: set[str] = set()
    errcodes: set[str] = set()
    for name in program.all_function_names():
        annotations = program.function_annotations(name)
        if annotations.has(AnnotationKind.BLOCKING):
            blocking.add(name)
        if annotations.has(AnnotationKind.BLOCKING_IF_WAIT):
            conditional.add(name)
        if annotations.has(AnnotationKind.ERRCODES):
            errcodes.add(name)
    resolved: dict[str, set[str]] = {}
    for site in graph.call_sites:
        if site.indirect:
            resolved.setdefault(site.caller, set()).add(site.callee)
    return SummaryContext(
        program=program,
        blocking_seeds=frozenset(blocking),
        conditional_seeds=frozenset(conditional),
        errcode_annotated=frozenset(errcodes),
        resolved_indirect={caller: frozenset(callees) for caller, callees in resolved.items()},
        consts=dict(consts) if consts else {},
    )


# ---------------------------------------------------------------------------
# The lock/IRQ abstract state and its join
# ---------------------------------------------------------------------------

#: (must lock deltas, may-held lock names, irq depth delta).
SummaryState = tuple[LockDelta, frozenset, int]

ENTRY_STATE: SummaryState = ((), frozenset(), 0)


def _clamp_count(count: int) -> int:
    return max(-LOCK_COUNT_CAP, min(LOCK_COUNT_CAP, count))


def _delta_add(delta: LockDelta, lock: str, amount: int) -> LockDelta:
    counts = dict(delta)
    counts[lock] = _clamp_count(counts.get(lock, 0) + amount)
    return tuple(sorted((l, c) for l, c in counts.items() if c != 0))


def join_states(a: SummaryState, b: SummaryState) -> SummaryState:
    """Join: pointwise-min must deltas, union may set, max IRQ depth.

    ``min`` on the must component is conservative in both directions — a
    lock acquired on only one path is not must-held after the merge, and a
    lock released on only one path must be assumed released.
    """
    must_a, may_a, irq_a = a
    must_b, may_b, irq_b = b
    counts_a, counts_b = dict(must_a), dict(must_b)
    merged = {}
    for lock in set(counts_a) | set(counts_b):
        merged[lock] = min(counts_a.get(lock, 0), counts_b.get(lock, 0))
    must = tuple(sorted((l, c) for l, c in merged.items() if c != 0))
    return (must, may_a | may_b, max(irq_a, irq_b))


def lock_name_of(expr: ast.Expr) -> str:
    """A stable name for a lock argument expression."""
    return render_expression(expr)


@dataclass
class _Effects:
    """Flow-insensitive facts accumulated while stepping a function."""

    acquires: set[str] = field(default_factory=set)


def apply_call(
    call: ast.Call,
    state: SummaryState,
    lookup: Callable[[str], FunctionSummary | None],
    effects: _Effects | None = None,
) -> SummaryState:
    """Step the (locks, IRQ) state over one call expression.

    Primitives (the lock/IRQ tables) are interpreted directly and are never
    summary-applied, so a corpus that *defines* ``spin_lock_irqsave`` over
    ``__hw_cli`` is not double-counted.  Every other named callee applies
    its :class:`FunctionSummary`; unresolved or indirect callees apply
    nothing (the documented imprecision — the points-to candidate sets are
    far too wide to join meaningfully).
    """
    target = call.func
    if not isinstance(target, ast.Ident):
        return state
    name = target.name
    must, may, irq = state
    if name in LOCK_ACQUIRE_CALLS and call.args:
        lock = lock_name_of(call.args[0])
        must = _delta_add(must, lock, 1)
        may = may | {lock}
        if effects is not None:
            effects.acquires.add(lock)
    elif name in LOCK_RELEASE_CALLS and call.args:
        lock = lock_name_of(call.args[0])
        must = _delta_add(must, lock, -1)
        may = may - {lock}
    if name in IRQ_DISABLE_CALLS:
        irq = min(irq + 1, IRQ_DEPTH_CAP)
    elif name in IRQ_ENABLE_CALLS:
        irq = max(irq - 1, -IRQ_DEPTH_CAP)
    elif name not in LOCK_ACQUIRE_CALLS and name not in LOCK_RELEASE_CALLS:
        if name in NONBLOCKING_BUILTINS:
            return (must, may, irq)
        summary = lookup(name)
        if summary is not None and summary.defined:
            for lock, count in summary.locks_released:
                must = _delta_add(must, lock, -count)
                may = may - {lock}
            for lock, count in summary.locks_held:
                must = _delta_add(must, lock, count)
            may = may | set(summary.may_return_held)
            if effects is not None:
                effects.acquires.update(summary.acquires)
            irq = max(-IRQ_DEPTH_CAP, min(irq + summary.irq_delta, IRQ_DEPTH_CAP))
    return (must, may, irq)


def step_element(
    expr: ast.Expr | None,
    state: SummaryState,
    lookup: Callable[[str], FunctionSummary | None],
    effects: _Effects | None = None,
) -> SummaryState:
    """Step the state over every call inside one CFG element (walk order)."""
    if expr is None:
        return state
    for node in walk(expr):
        if isinstance(node, ast.Call):
            state = apply_call(node, state, lookup, effects)
    return state


# ---------------------------------------------------------------------------
# Per-function summary computation
# ---------------------------------------------------------------------------


def _call_may_block(
    call: ast.Call,
    caller: str,
    ctx: SummaryContext,
    lookup: Callable[[str], FunctionSummary | None],
) -> bool:
    target = call.func
    if not isinstance(target, ast.Ident):
        resolved = ctx.resolved_indirect.get(caller, frozenset())
        for callee in resolved:
            if callee in ctx.conditional_seeds:
                continue  # per-site GFP refinement is lost through pointers
            if callee in ctx.blocking_seeds:
                return True
            summary = lookup(callee)
            if summary is not None and summary.may_block:
                return True
        return False
    name = target.name
    if name in NONBLOCKING_BUILTINS:
        return False
    if name in ctx.conditional_seeds:
        return flags_may_wait(call)
    if name in ctx.blocking_seeds:
        return True
    summary = lookup(name)
    return summary is not None and summary.may_block


def _error_codes_of(
    expr: ast.Expr,
    ctx: SummaryContext,
    lookup: Callable[[str], FunctionSummary | None],
) -> frozenset[int]:
    """Error codes ``return expr`` may produce (direct or propagated).

    Constant folding runs first: a return whose value folds to a negative
    constant is an error return even when it is not literally ``-N`` —
    ``return 0 - EINVAL;`` or ``return -(ERR_BASE + 2);`` with ``#define``d
    names count, via the constant lattice's evaluator.
    """
    folded = eval_const(expr)
    if folded is not None:
        return frozenset({folded}) if folded < 0 else frozenset()
    if isinstance(expr, ast.Cast):
        return _error_codes_of(expr.operand, ctx, lookup)
    if isinstance(expr, ast.Comma) and expr.exprs:
        return _error_codes_of(expr.exprs[-1], ctx, lookup)
    if isinstance(expr, ast.Conditional):
        then_codes = _error_codes_of(expr.then, ctx, lookup)
        return then_codes | _error_codes_of(expr.otherwise, ctx, lookup)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        if isinstance(expr.operand, ast.IntLit) and expr.operand.value > 0:
            return frozenset({-expr.operand.value})
        return frozenset()
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Ident):
        name = expr.func.name
        if name in ctx.errcode_annotated:
            return frozenset({-1})
        summary = lookup(name)
        if summary is not None and summary.error_returns:
            return frozenset(summary.error_returns)
    return frozenset()


def function_frame_size(program: Program, func: ast.FuncDef) -> int:
    """Estimate one function's stack frame: locals + parameters + overhead.

    A ``stacksize(n)`` annotation overrides the estimate, mirroring the
    paper's "stack space annotations on each function".
    """
    annotation = program.function_annotations(func.name).get(AnnotationKind.STACKSIZE)
    if annotation is not None and annotation.args:
        arg = annotation.args[0]
        if isinstance(arg, ast.IntLit):
            return arg.value
    total = FRAME_OVERHEAD
    ftype = func.type.strip()
    for param in getattr(ftype, "params", []):
        total += max(ctype_size(param.type), 4)
    for decl in program.syntax_of(func).declarations:
        if not decl.is_typedef:
            try:
                total += max(ctype_size(decl.type), 4)
            except Exception:
                total += 4
    return total


def _local_names(func: ast.FuncDef, syntax: FunctionSyntax) -> frozenset[str]:
    """Parameter and local-variable names of ``func``.

    A lock expression mentioning one of these (``lock``, ``&(cache->lock)``)
    names storage the *caller* cannot name, so it must not escape into the
    exported summary components — callers could only ever false-match it
    against an unrelated identically-rendered expression of their own.
    """
    params = getattr(func.type.strip(), "params", [])
    names = {param.name for param in params if getattr(param, "name", None)}
    names.update(decl.name for decl in syntax.declarations if decl.name)
    return frozenset(names)


def _caller_meaningful(lock: str, local_names: frozenset[str]) -> bool:
    mentioned = set(re.findall(r"[A-Za-z_]\w*", lock))
    return not (mentioned & local_names)


def _live_elements(cfg, func_consts: FunctionFacts):
    """Yield ``(element, expr)`` for every element on a feasible path."""
    for block in cfg.blocks:
        if block.index not in func_consts.reachable:
            continue
        for element in block.elements:
            if element.expr is not None:
                yield element, element.expr


def _needs_cfg(syntax: FunctionSyntax, lookup: Callable[[str], FunctionSummary | None]) -> bool:
    """Whether any call in the function can move the lock/IRQ state."""
    for node in syntax.calls:
        if not isinstance(node.func, ast.Ident):
            continue
        name = node.func.name
        if name in LOCK_ACQUIRE_CALLS or name in LOCK_RELEASE_CALLS:
            return True
        if name in IRQ_DISABLE_CALLS or name in IRQ_ENABLE_CALLS:
            return True
        if name in NONBLOCKING_BUILTINS:
            continue
        summary = lookup(name)
        if summary is None or not summary.defined:
            continue
        if not summary.trivial_lock_effect or summary.irq_delta != 0:
            return True
    return False


def compute_summary(
    name: str,
    ctx: SummaryContext,
    lookup: Callable[[str], FunctionSummary | None],
    frame_size: int | None = None,
) -> FunctionSummary:
    """Compute one function's summary given its callees' current summaries.

    ``lookup`` returns the current summary of a callee — for same-SCC
    callees that is the previous fixpoint iterate (bottom on the first
    round), which is what makes recursion converge by lattice ascent.
    """
    program = ctx.program
    func = program.functions.get(name)
    if func is None:
        return replace(
            BOTTOM_SUMMARY,
            name=name,
            may_block=name in ctx.blocking_seeds,
            error_returns=(-1,) if name in ctx.errcode_annotated else (),
        )
    syntax = program.syntax(name)
    func_consts = facts_of(func, cache=ctx.consts, syntax=syntax)
    cfg = None
    may_block = name in ctx.blocking_seeds
    error_codes: set[int] = set()
    if func_consts is not None and func_consts.prunes:
        # Condition-aware sweep: only expressions in blocks some feasible
        # path reaches contribute.  A blocking call or an error return
        # inside an ``if (0)`` arm must not escape into the summary — that
        # is exactly what lets a conditionally-dead bug stop reporting
        # ``may-block``/``may-return-held`` to every transitive caller.
        cfg = build_cfg(func)
        for element, expr in _live_elements(cfg, func_consts):
            if not may_block:
                for node in walk(expr):
                    if isinstance(node, ast.Call) and _call_may_block(node, name, ctx, lookup):
                        may_block = True
                        break
            if element.kind == RETURN:
                error_codes |= _error_codes_of(expr, ctx, lookup)
    else:
        if not may_block:
            may_block = any(_call_may_block(node, name, ctx, lookup) for node in syntax.calls)
        for node in syntax.returns:
            if node.value is not None:
                error_codes |= _error_codes_of(node.value, ctx, lookup)
    if name in ctx.errcode_annotated:
        error_codes.add(-1)

    effects = _Effects()
    exit_state = ENTRY_STATE
    if _needs_cfg(syntax, lookup):
        cfg = cfg or build_cfg(func)

        def transfer(block, state: SummaryState) -> SummaryState:
            for element in block.elements:
                state = step_element(element.expr, state, lookup, effects)
            return state

        in_states = solve_forward(
            cfg,
            transfer,
            join_states,
            entry_state=ENTRY_STATE,
            edge_refine=refined_edges(func_consts),
        )
        solved_exit = in_states[cfg.exit]
        exit_state = solved_exit if solved_exit is not None else ENTRY_STATE

    must, may, irq = exit_state
    local_names = _local_names(func, syntax)

    def exported(lock: str) -> bool:
        return _caller_meaningful(lock, local_names)

    if frame_size is None:
        frame_size = function_frame_size(program, func)
    return FunctionSummary(
        name=name,
        defined=True,
        may_block=may_block,
        irq_delta=irq,
        locks_held=tuple(sorted((l, c) for l, c in must if c > 0 and exported(l))),
        locks_released=tuple(sorted((l, -c) for l, c in must if c < 0 and exported(l))),
        may_return_held=tuple(sorted(l for l in may if exported(l))),
        acquires=tuple(sorted(l for l in effects.acquires if exported(l))),
        error_returns=tuple(sorted(error_codes)),
        frame_size=frame_size,
        stack_depth=0,  # filled in by the SCC solver (needs callee depths)
    )
