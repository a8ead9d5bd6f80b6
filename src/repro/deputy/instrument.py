"""The Deputy instrumenter: a source-to-source rewriting pass.

For every obligation the static checker could not discharge, the instrumenter
splices a call to one of the ``__deputy_check_*`` runtime builtins into the
expression tree, using the C comma operator so that the check runs immediately
before the access it protects:

    ``buf[i]``            becomes  ``(__deputy_check_index(i, n), buf[i])``
    ``p->refcnt = 1;``    becomes  ``(__deputy_check_ptr(p, 32), p->refcnt = 1);``

Because the inserted checks are ordinary calls, the instrumented program is
still a plain MiniC program: it can be pretty-printed, re-parsed and executed
by the unmodified abstract machine, which is exactly how a C-to-C compiler
like the real Deputy slots into the kernel build.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..dataflow.cfg import build_cfg
from ..dataflow.consts import trackable_names
from ..dataflow.domains import facts_of
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import CPointer
from ..minic.syntax import FunctionSyntax
from .checker import (
    Decision,
    DeputyOptions,
    FunctionCheckResult,
    Obligation,
    ObligationKind,
    ObligationStatus,
    decide_call_contracts,
    decide_cast,
    decide_deref,
    decide_index,
    decide_union_access,
)
from .optimizer import CheckCache, writes_memory, written_names
from .typesystem import DeputyError, TypeEnv


@dataclass
class InstrumentationResult:
    """The outcome of instrumenting a whole program."""

    program: Program
    results: dict[str, FunctionCheckResult] = field(default_factory=dict)

    @property
    def errors(self) -> list[DeputyError]:
        collected: list[DeputyError] = []
        for result in self.results.values():
            collected.extend(result.errors)
        return collected

    def total(self, status: ObligationStatus) -> int:
        return sum(r.count(status) for r in self.results.values())

    @property
    def checks_inserted(self) -> int:
        return self.total(ObligationStatus.RUNTIME)

    @property
    def checks_static(self) -> int:
        return self.total(ObligationStatus.STATIC)

    @property
    def checks_elided(self) -> int:
        return self.total(ObligationStatus.ELIDED)

    @property
    def checks_interval(self) -> int:
        """Static discharges owed to the interval domain specifically."""
        return sum(1 for result in self.results.values()
                   for obligation in result.obligations
                   if obligation.status is ObligationStatus.STATIC
                   and obligation.detail == "interval-bounded index")

    @property
    def checks_relational(self) -> int:
        """Static discharges owed to relational (difference-bound) facts."""
        return sum(1 for result in self.results.values()
                   for obligation in result.obligations
                   if obligation.status is ObligationStatus.STATIC
                   and obligation.detail == "relational-bounded index")


class DeputyInstrumenter:
    """Instrument every function of a program with Deputy run-time checks.

    ``env_cache`` is an optional shared per-function :class:`TypeEnv` table
    (the engine's symbol-table artifact); environments are looked up there
    first and stored back, so repeated analyses over the same program do not
    rebuild them.

    ``facts`` is the engine's per-function dataflow artifact
    (:class:`repro.dataflow.domains.FunctionFacts`, keyed by function name).
    The instrumenter seeds each loop body's region cache with the solved
    interval environment at the loop head, which is what lets the static
    checker discharge ``i < n``-bounded index obligations instead of
    emitting ``__deputy_check_index``.  When no table is supplied the facts
    are solved on demand per function — like the other standalone checker
    entry points, results match the artifact-fed engine run by
    construction.
    """

    def __init__(self, program: Program, options: DeputyOptions | None = None,
                 env_cache: dict[str, TypeEnv] | None = None,
                 facts: dict | None = None) -> None:
        self.program = program
        self.options = options or DeputyOptions()
        self.results: dict[str, FunctionCheckResult] = {}
        self.env_cache = env_cache
        self.facts = facts
        self._facts_cache: dict = {}

    # -- public API ---------------------------------------------------------

    def run(self, rewrite: bool = True,
            functions: list[str] | None = None) -> InstrumentationResult:
        """Analyse (and, if ``rewrite``, transform) functions in place.

        ``functions`` restricts the pass to a subset of defined functions,
        which is how the engine shards checking by translation unit.
        """
        if functions is not None:
            wanted = set(functions)
        for unit in self.program.units:
            for decl in unit.decls:
                if isinstance(decl, ast.FuncDef):
                    if functions is not None and decl.name not in wanted:
                        continue
                    self._do_function(decl, rewrite)
        return InstrumentationResult(program=self.program, results=self.results)

    # -- per function ---------------------------------------------------------

    def _env_for(self, func: ast.FuncDef) -> TypeEnv:
        if self.env_cache is None:
            return TypeEnv(self.program, func)
        env = self.env_cache.get(func.name)
        if env is None:
            env = TypeEnv(self.program, func)
            self.env_cache[func.name] = env
        return env

    def _do_function(self, func: ast.FuncDef, rewrite: bool) -> None:
        result = FunctionCheckResult(function=func.name)
        self.results[func.name] = result
        if _function_is_trusted(func):
            result.trusted = True
            return
        env = self._env_for(func)
        syntax = self.program.syntax_of(func)
        loop_ranges, loop_relations = self._loop_facts(func, syntax)
        worker = _FunctionInstrumenter(env, self.options, result, rewrite,
                                       safe_names=trackable_names(func, syntax),
                                       loop_ranges=loop_ranges,
                                       loop_relations=loop_relations)
        new_body = worker.stmt(func.body, worker.fresh_cache())
        if rewrite:
            if isinstance(new_body, ast.Block):
                func.body = new_body
            self.program.forget_syntax(func)

    def _loop_facts(self, func: ast.FuncDef, syntax: FunctionSyntax
                    ) -> tuple[dict[int, tuple], dict[int, tuple]]:
        """Solved interval and octagon loop-head states, keyed by ``id(stmt)``.

        The structural walk cannot iterate a loop body to a fixpoint, so the
        region caches import the CFG solver's widened/narrowed state at each
        ``while``/``for`` condition block — both the per-name interval
        ranges and the relational (difference-bound) environment, which is
        how a bound derived *before* the loop (``limit = n - 1``) reaches
        the body's entailment queries.  ``do``/``while`` is excluded: its
        condition block follows the body, so its state is not the body's
        entry state.
        """
        if self.facts is not None:
            facts = self.facts.get(func.name)
        else:
            facts = facts_of(func, cache=self._facts_cache, syntax=syntax)
        interval_envs = getattr(facts, "interval_envs", None) or {}
        octagon_envs = getattr(facts, "octagon_envs", None) or {}
        if not interval_envs and not octagon_envs:
            return {}, {}
        ranges: dict[int, tuple] = {}
        relations: dict[int, tuple] = {}
        for block in build_cfg(func).blocks:
            element = block.condition_element()
            if element is None or not isinstance(element.stmt,
                                                 (ast.While, ast.For)):
                continue
            frozen = interval_envs.get(block.index)
            if frozen:
                ranges[id(element.stmt)] = frozen
            frozen = octagon_envs.get(block.index)
            if frozen:
                relations[id(element.stmt)] = frozen
        return ranges, relations


def _function_is_trusted(func: ast.FuncDef) -> bool:
    from ..annotations.attrs import AnnotationKind
    return func.annotations.has(AnnotationKind.TRUSTED)


def _case_terminates(stmts: list[ast.Stmt]) -> bool:
    """Whether a case arm's statement list cannot fall into the next arm."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Break, ast.Return, ast.Goto, ast.Continue))


def _has_side_effects(check: ast.Expr) -> bool:
    """Whether a check call's arguments contain side-effecting expressions.

    Calls to other Deputy checks are pure and idempotent, so only ordinary
    calls, assignments and increments count.
    """
    from ..minic.visitor import walk
    if not isinstance(check, ast.Call):
        return False
    for arg in check.args:
        for node in walk(arg):
            if isinstance(node, ast.Call):
                name = node.func.name if isinstance(node.func, ast.Ident) else ""
                if not name.startswith("__deputy_check"):
                    return True
            elif isinstance(node, (ast.Assign, ast.Postfix)):
                return True
            elif isinstance(node, ast.Unary) and node.op in ("++", "--"):
                return True
    return False


class _FunctionInstrumenter:
    """Walks one function body, deciding and splicing checks."""

    def __init__(self, env: TypeEnv, options: DeputyOptions,
                 result: FunctionCheckResult, rewrite: bool,
                 safe_names: frozenset[str] = frozenset(),
                 loop_ranges: dict[int, tuple] | None = None,
                 loop_relations: dict[int, tuple] | None = None) -> None:
        self.env = env
        self.options = options
        self.result = result
        self.rewrite = rewrite
        self.in_trusted_block = 0
        self.safe_names = safe_names
        self.loop_ranges = loop_ranges or {}
        self.loop_relations = loop_relations or {}

    def fresh_cache(self, enabled: bool | None = None) -> CheckCache:
        """A new region cache carrying this function's callee-immune names."""
        if enabled is None:
            enabled = self.options.optimize
        return CheckCache(enabled=enabled, safe_names=self.safe_names)

    # -- bookkeeping ----------------------------------------------------------

    def _record(self, decision: Decision, loc, cache: CheckCache) -> ast.Expr | None:
        """Record the obligation; return the check expression to splice (if any)."""
        status = decision.status
        check = decision.check
        if self.in_trusted_block:
            status = ObligationStatus.TRUSTED
            check = None
        elif (status is ObligationStatus.RUNTIME and check is not None
              and decision.kind is not ObligationKind.CAST
              and _has_side_effects(check)):
            # The check would duplicate a side-effecting operand (a call or an
            # increment); rather than evaluate it twice, trust the access and
            # flag it for review -- the same escape hatch the paper gives
            # programmers for code the tool cannot handle.
            status = ObligationStatus.TRUSTED
            check = None
            decision = Decision(status, decision.kind, None,
                                "operand has side effects; check not duplicable")
        elif status is ObligationStatus.RUNTIME and check is not None:
            if cache.is_redundant(check):
                status = ObligationStatus.ELIDED
                check = None
            else:
                cache.remember(check)
        if status is ObligationStatus.ERROR:
            self.result.errors.append(DeputyError(
                message=decision.detail or "operation cannot be checked",
                location=loc, function=self.result.function))
        self.result.obligations.append(Obligation(
            kind=decision.kind, status=status, location=loc,
            function=self.result.function, detail=decision.detail,
            check=check))
        if not self.rewrite:
            return None
        return check

    def _wrap(self, checks: list[ast.Expr], expr: ast.Expr) -> ast.Expr:
        if not checks:
            return expr
        return ast.Comma(exprs=[*checks, expr], location=expr.location)

    # -- statements --------------------------------------------------------------

    def stmt(self, stmt: ast.Stmt, cache: CheckCache) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            if stmt.trusted:
                self.in_trusted_block += 1
                # Still walk it so obligations are counted as trusted.
                for index, inner in enumerate(stmt.stmts):
                    stmt.stmts[index] = self.stmt(inner, self.fresh_cache(enabled=False))
                self.in_trusted_block -= 1
                return stmt
            for index, inner in enumerate(stmt.stmts):
                stmt.stmts[index] = self.stmt(inner, cache)
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.expr(stmt.expr, cache)
            self._after_effects(stmt.expr, cache)
            return stmt
        if isinstance(stmt, ast.DeclStmt):
            init = stmt.decl.init
            if init is not None:
                self._instrument_initializer(init, cache)
            cache.invalidate_name(stmt.decl.name)
            cache.bind_decl(stmt.decl.name,
                            init.expr if init is not None and not init.is_list
                            else None)
            return stmt
        if isinstance(stmt, ast.If):
            stmt.cond = self.expr(stmt.cond, cache)
            self._after_effects(stmt.cond, cache)
            then_cache = cache.fork(stmt.cond, branch_true=True)
            else_cache = cache.fork(stmt.cond, branch_true=False)
            stmt.then = self.stmt(stmt.then, then_cache)
            if stmt.otherwise is not None:
                stmt.otherwise = self.stmt(stmt.otherwise, else_cache)
            cache.invalidate_all()
            return stmt
        if isinstance(stmt, ast.While):
            cache.invalidate_all()
            body_cache = self.fresh_cache()
            body_cache.seed_ranges(self.loop_ranges.get(id(stmt), ()))
            body_cache.seed_relations(self.loop_relations.get(id(stmt), ()))
            stmt.cond = self.expr(stmt.cond, body_cache)
            # Every iteration enters the body through the condition, so the
            # body may assume its truth facts (the region reset above keeps
            # loop-carried state out).
            body_cache = body_cache.fork(stmt.cond, branch_true=True)
            stmt.body = self.stmt(stmt.body, body_cache)
            return stmt
        if isinstance(stmt, ast.DoWhile):
            cache.invalidate_all()
            body_cache = self.fresh_cache()
            stmt.body = self.stmt(stmt.body, body_cache)
            stmt.cond = self.expr(stmt.cond, body_cache)
            return stmt
        if isinstance(stmt, ast.For):
            if isinstance(stmt.init, ast.Expr):
                stmt.init = self.expr(stmt.init, cache)
            elif isinstance(stmt.init, ast.Declaration) and stmt.init.init is not None:
                self._instrument_initializer(stmt.init.init, cache)
            cache.invalidate_all()
            body_cache = self.fresh_cache()
            body_cache.seed_ranges(self.loop_ranges.get(id(stmt), ()))
            body_cache.seed_relations(self.loop_relations.get(id(stmt), ()))
            if stmt.cond is not None:
                stmt.cond = self.expr(stmt.cond, body_cache)
                # The body only runs when the condition held, exactly as in
                # the `while` case above.
                body_cache = body_cache.fork(stmt.cond, branch_true=True)
            stmt.body = self.stmt(stmt.body, body_cache)
            if stmt.step is not None:
                stmt.step = self.expr(stmt.step, body_cache)
            return stmt
        if isinstance(stmt, ast.Switch):
            stmt.cond = self.expr(stmt.cond, cache)
            self._after_effects(stmt.cond, cache)
            fallthrough: CheckCache | None = None
            for case in stmt.cases:
                # Dispatch entry knows scrutinee == case value; an arm that
                # can also be entered by fallthrough keeps only the facts
                # (cached checks and constants) both entry paths agree on —
                # a pre-switch fact the previous arm invalidated must not
                # survive into an arm that arm falls into.
                case_cache = cache.fork_switch(stmt.cond, case.value)
                if fallthrough is not None:
                    case_cache = case_cache.joined(fallthrough)
                for index, inner in enumerate(case.stmts):
                    case.stmts[index] = self.stmt(inner, case_cache)
                fallthrough = (None if _case_terminates(case.stmts)
                               else case_cache)
            cache.invalidate_all()
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self.expr(stmt.value, cache)
            return stmt
        if isinstance(stmt, ast.Label):
            cache.invalidate_all()
            if stmt.stmt is not None:
                stmt.stmt = self.stmt(stmt.stmt, cache)
            return stmt
        # Break, Continue, Goto, Empty, Asm need no instrumentation.
        return stmt

    def _instrument_initializer(self, init: ast.Initializer, cache: CheckCache) -> None:
        if init.is_list:
            for element in init.elements or []:
                self._instrument_initializer(element, cache)
        elif init.expr is not None:
            init.expr = self.expr(init.expr, cache)

    def _after_effects(self, expr: ast.Expr, cache: CheckCache) -> None:
        """Invalidate cached checks according to the side effects of ``expr``,
        then learn the constant bindings its assignments establish."""
        for name in written_names(expr):
            cache.invalidate_name(name)
        if writes_memory(expr):
            cache.invalidate_memory()
        cache.note_effects(expr)

    # -- expressions (rvalue position) -------------------------------------------

    def expr(self, expr: ast.Expr, cache: CheckCache) -> ast.Expr:
        if isinstance(expr, ast.Unary) and expr.op == "*":
            operand = self.expr(expr.operand, cache)
            expr.operand = operand
            decision = decide_deref(self.env, operand,
                                    self.env.type_of(expr), self.options,
                                    expr.location)
            check = self._record(decision, expr.location, cache)
            return self._wrap([check] if check else [], expr)
        if isinstance(expr, ast.Unary) and expr.op in ("&", "++", "--"):
            new_target, checks = self.lvalue(expr.operand, cache)
            expr.operand = new_target
            return self._wrap(checks, expr)
        if isinstance(expr, ast.Unary):
            expr.operand = self.expr(expr.operand, cache)
            return expr
        if isinstance(expr, ast.Postfix):
            new_target, checks = self.lvalue(expr.operand, cache)
            expr.operand = new_target
            return self._wrap(checks, expr)
        if isinstance(expr, ast.Index):
            expr.base = self.expr(expr.base, cache)
            expr.index = self.expr(expr.index, cache)
            decision = decide_index(self.env, expr.base, expr.index,
                                    self.options, expr.location,
                                    fold=cache.fold,
                                    prove=cache.prove_index)
            check = self._record(decision, expr.location, cache)
            return self._wrap([check] if check else [], expr)
        if isinstance(expr, ast.Member):
            return self._member(expr, cache, as_lvalue=False)[0]
        if isinstance(expr, ast.Assign):
            return self._assign(expr, cache)
        if isinstance(expr, ast.Binary):
            expr.left = self.expr(expr.left, cache)
            expr.right = self.expr(expr.right, cache)
            return expr
        if isinstance(expr, ast.Conditional):
            expr.cond = self.expr(expr.cond, cache)
            then_cache = cache.fork()
            else_cache = cache.fork()
            expr.then = self.expr(expr.then, then_cache)
            expr.otherwise = self.expr(expr.otherwise, else_cache)
            return expr
        if isinstance(expr, ast.Call):
            return self._call(expr, cache)
        if isinstance(expr, ast.Cast):
            expr.operand = self.expr(expr.operand, cache)
            decision = decide_cast(self.env, expr, self.options)
            check = self._record(decision, expr.location, cache)
            if check is not None and isinstance(check, ast.Call):
                # Cast checks are pass-through: the runtime builtin returns its
                # first argument, so the (possibly side-effecting) operand is
                # evaluated exactly once:  (T *)__deputy_check_cast(e, size).
                check.args[0] = expr.operand
                expr.operand = check
            return expr
        if isinstance(expr, ast.Comma):
            expr.exprs = [self.expr(item, cache) for item in expr.exprs]
            return expr
        # Literals, identifiers, sizeof: nothing to do.
        return expr

    def _member(self, expr: ast.Member, cache: CheckCache,
                as_lvalue: bool) -> tuple[ast.Expr, list[ast.Expr]]:
        checks: list[ast.Expr] = []
        if expr.arrow:
            expr.base = self.expr(expr.base, cache)
            struct_type = self.env.type_of(expr.base).strip()
            target = struct_type.target if isinstance(struct_type, CPointer) else struct_type
            decision = decide_deref(self.env, expr.base, target, self.options,
                                    expr.location)
            check = self._record(decision, expr.location, cache)
            if check is not None:
                checks.append(check)
        else:
            if as_lvalue:
                new_base, base_checks = self.lvalue(expr.base, cache)
                expr.base = new_base
                checks.extend(base_checks)
            else:
                expr.base = self.expr(expr.base, cache)
        union_decision = decide_union_access(self.env, expr, self.options)
        if union_decision is not None:
            check = self._record(union_decision, expr.location, cache)
            if check is not None:
                checks.append(check)
        if as_lvalue:
            return expr, checks
        return self._wrap(checks, expr), []

    def _assign(self, expr: ast.Assign, cache: CheckCache) -> ast.Expr:
        new_target, target_checks = self.lvalue(expr.target, cache)
        expr.target = new_target
        expr.value = self.expr(expr.value, cache)
        self._after_effects(expr, cache)
        return self._wrap(target_checks, expr)

    def _call(self, expr: ast.Call, cache: CheckCache) -> ast.Expr:
        if not isinstance(expr.func, ast.Ident):
            expr.func = self.expr(expr.func, cache)
        expr.args = [self.expr(arg, cache) for arg in expr.args]
        checks: list[ast.Expr] = []
        for decision in decide_call_contracts(self.env, expr, self.options):
            check = self._record(decision, expr.location, cache)
            if check is not None:
                checks.append(check)
        cache.invalidate_memory()
        return self._wrap(checks, expr)

    # -- lvalue position ------------------------------------------------------------

    def lvalue(self, expr: ast.Expr, cache: CheckCache) -> tuple[ast.Expr, list[ast.Expr]]:
        """Instrument an lvalue; returns (expression, hoisted checks)."""
        if isinstance(expr, ast.Ident):
            return expr, []
        if isinstance(expr, ast.Unary) and expr.op == "*":
            expr.operand = self.expr(expr.operand, cache)
            decision = decide_deref(self.env, expr.operand,
                                    self.env.type_of(expr), self.options,
                                    expr.location)
            check = self._record(decision, expr.location, cache)
            return expr, [check] if check else []
        if isinstance(expr, ast.Index):
            expr.base = self.expr(expr.base, cache)
            expr.index = self.expr(expr.index, cache)
            decision = decide_index(self.env, expr.base, expr.index,
                                    self.options, expr.location,
                                    fold=cache.fold,
                                    prove=cache.prove_index)
            check = self._record(decision, expr.location, cache)
            return expr, [check] if check else []
        if isinstance(expr, ast.Member):
            return self._member(expr, cache, as_lvalue=True)
        if isinstance(expr, ast.Cast):
            inner, checks = self.lvalue(expr.operand, cache)
            expr.operand = inner
            return expr, checks
        # Not a recognised lvalue shape; instrument as an rvalue.
        return self.expr(expr, cache), []


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def instrument_program(program: Program,
                       options: DeputyOptions | None = None) -> InstrumentationResult:
    """Instrument ``program`` in place and return the result summary."""
    return DeputyInstrumenter(program, options).run(rewrite=True)


def instrument_copy(program: Program,
                    options: DeputyOptions | None = None) -> InstrumentationResult:
    """Instrument a deep copy of ``program``, leaving the original untouched."""
    clone = copy.deepcopy(program)
    return DeputyInstrumenter(clone, options).run(rewrite=True)
