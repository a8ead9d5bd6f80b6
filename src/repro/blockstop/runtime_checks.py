"""BlockStop's run-time assertions.

Static analysis of function pointers is conservative, so some reported
violations are false positives.  The paper's remedy is a run-time check: "We
defined a special function that panics if interrupts are disabled, and
manually inserted calls to this function in 15 places in the kernel."  Adding
the check to the entry of a function asserts that it will in fact never be
called with interrupts disabled; the static checker then stops reporting paths
that run through it, and if the assertion was wrong the kernel fails loudly at
run time instead of hanging silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.errors import CheckFailure
from ..machine.interpreter import Interpreter
from ..machine.program import Program
from ..machine.values import TypedValue, VOID_VALUE
from ..minic import ast_nodes as ast

ASSERT_BUILTIN = "__blockstop_assert_irqs_enabled"


@dataclass
class RuntimeCheckSet:
    """The set of functions that carry the manual run-time assertion."""

    functions: set[str] = field(default_factory=set)

    def add(self, name: str) -> None:
        self.functions.add(name)

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __len__(self) -> int:
        return len(self.functions)


@dataclass
class BlockStopRuntimeStats:
    """Counters from executing the inserted assertions."""

    assertions_executed: int = 0
    assertion_failures: int = 0


def install(interp: Interpreter) -> BlockStopRuntimeStats:
    """Register the assertion builtin on ``interp``."""
    stats = BlockStopRuntimeStats()

    def assert_irqs_enabled(interp: Interpreter, args: list[TypedValue], loc) -> TypedValue:
        stats.assertions_executed += 1
        interp.counter.charge("blockstop_assert")
        if not interp.hw.irqs_enabled or interp.hw.in_interrupt:
            stats.assertion_failures += 1
            raise CheckFailure(
                "function asserted to run with interrupts enabled was called "
                "from atomic context", tool="blockstop", location=loc)
        return VOID_VALUE

    interp.register_builtin(ASSERT_BUILTIN, assert_irqs_enabled)
    return stats


def insert_assertions(program: Program, checks: RuntimeCheckSet) -> int:
    """Insert the assertion call at the top of every function in ``checks``.

    Returns the number of assertions actually inserted.  The insertion is a
    source-level change (the instrumented program still pretty-prints and
    re-parses), mirroring how the paper's authors edited the 15 kernel sites.
    """
    inserted = 0
    for name in sorted(checks.functions):
        func = program.function(name)
        if func is None:
            continue
        already = any(
            isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Call)
            and isinstance(stmt.expr.func, ast.Ident)
            and stmt.expr.func.name == ASSERT_BUILTIN
            for stmt in func.body.stmts[:1])
        if already:
            continue
        call = ast.make_call(ASSERT_BUILTIN, [], func.location)
        func.body.stmts.insert(0, ast.ExprStmt(expr=call, location=func.location))
        program.forget_syntax(func)
        inserted += 1
    return inserted
