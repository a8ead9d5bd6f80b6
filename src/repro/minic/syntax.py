"""The per-function syntax index: one walk, read by every pass.

Most analyses need only a handful of syntactic facts about a function body —
its call sites, its plain assignments, its local declarations, its returns,
which names it mentions and which have their address taken, whether it
contains inline assembly or any branch — and re-walking the body once per
fact, per pass, would dominate an incremental pass.  :func:`index_function`
collects all of them in a single walk into a frozen :class:`FunctionSyntax`;
the linked :class:`~repro.machine.program.Program` owns one record per
function (``program.syntax(name)``, built on first use).

The records hold references to the function's own nodes, so they describe
the tree as it was when indexed: code that rewrites a linked body in place
must drop the record afterwards (``program.forget_syntax(func)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import ast_nodes as ast
from .visitor import walk

_BRANCHES = (ast.If, ast.While, ast.DoWhile, ast.Switch)


@dataclass(frozen=True, eq=False)
class FunctionSyntax:
    """What one walk of a function body found, every sequence in walk order."""

    #: Every call expression, direct or through a pointer.
    calls: tuple[ast.Call, ...]
    #: Plain ``=`` assignments (compound ones are not stores of a new value).
    assigns: tuple[ast.Assign, ...]
    #: Every declaration in the body (typedefs included).
    declarations: tuple[ast.Declaration, ...]
    returns: tuple[ast.Return, ...]
    #: Every identifier the body names: locals, parameters, globals and
    #: functions alike (a local may shadow a function's name).
    names: frozenset[str]
    #: Base names of ``&x``, ``&x.f``, ``&x[i]`` (through casts) operands.
    address_taken: frozenset[str]
    has_asm: bool
    #: Whether the body has a construct branch refinement could prune.
    has_branches: bool


def _address_base(expr: ast.Expr) -> Optional[str]:
    """The variable whose storage ``&expr`` exposes, if ``expr`` names one."""
    while True:
        if isinstance(expr, (ast.Member, ast.Index)):
            expr = expr.base
        elif isinstance(expr, ast.Cast):
            expr = expr.operand
        else:
            return expr.name if isinstance(expr, ast.Ident) else None


def index_function(func: ast.FuncDef) -> FunctionSyntax:
    """Build ``func``'s syntax record in one walk of its body."""
    calls: list[ast.Call] = []
    assigns: list[ast.Assign] = []
    declarations: list[ast.Declaration] = []
    returns: list[ast.Return] = []
    names: set[str] = set()
    address_taken: set[str] = set()
    has_asm = has_branches = False
    for node in walk(func.body):
        if isinstance(node, ast.Expr):
            if isinstance(node, ast.Ident):
                names.add(node.name)
            elif isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Assign):
                if node.op == "=":
                    assigns.append(node)
            elif isinstance(node, ast.Unary) and node.op == "&":
                name = _address_base(node.operand)
                if name is not None:
                    address_taken.add(name)
        elif isinstance(node, ast.Declaration):
            declarations.append(node)
        elif isinstance(node, ast.Return):
            returns.append(node)
        elif isinstance(node, ast.Asm):
            has_asm = True
        elif isinstance(node, _BRANCHES) or (isinstance(node, ast.For)
                                             and node.cond is not None):
            has_branches = True
    return FunctionSyntax(calls=tuple(calls), assigns=tuple(assigns),
                          declarations=tuple(declarations),
                          returns=tuple(returns), names=frozenset(names),
                          address_taken=frozenset(address_taken),
                          has_asm=has_asm, has_branches=has_branches)
