"""Control-flow graphs over MiniC function bodies.

A :class:`CFG` is a list of :class:`BasicBlock`\\ s.  Each block holds an
ordered list of :class:`Element`\\ s — the expressions the block evaluates,
tagged with how they are used (plain evaluation, declaration initializer,
branch condition, return value) — and edges to successor blocks.  Edges out
of a condition carry a ``"true"``/``"false"`` label; ``switch`` dispatch
edges carry ``"case"``/``"default"``.

The builder performs a single structured lowering pass:

* ``if``/``else`` produce diamond shapes with a join block;
* ``while``/``do``/``for`` produce a header with a back edge (so the solver
  iterates loops to a fixpoint);
* ``return`` edges to the dedicated exit block and starts an unreachable
  continuation block;
* ``break``/``continue`` edge to the innermost loop (or switch) targets;
* ``goto``/labels resolve through a per-function label table.

Statements after a jump still get blocks — with no predecessors — so the
solver sees them as unreachable (input state ``None``) rather than silently
dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..minic import ast_nodes as ast
from ..minic.visitor import initializer_expressions, walk

#: Element kinds: how the expression is consumed by the block.
EXPR = "expr"
DECL = "decl"
COND = "cond"
RETURN = "return"


def expr_has_side_effects(expr: ast.Expr) -> bool:
    """Whether ``expr`` contains an assignment or an increment/decrement."""
    for node in walk(expr):
        if isinstance(node, ast.Assign):
            return True
        if isinstance(node, (ast.Postfix, ast.Unary)) and node.op in ("++", "--"):
            return True
    return False


@dataclass(frozen=True)
class Element:
    """One expression evaluated by a basic block.

    ``decl`` is the :class:`ast.Declaration` the expression initializes when
    ``kind == "decl"`` (so analyses can see the variable being bound without
    re-deriving parenthood).  ``expr`` is ``None`` only for value-less
    ``return;`` elements.
    """

    kind: str
    expr: Optional[ast.Expr]
    stmt: ast.Stmt
    decl: Optional[ast.Declaration] = None

    @cached_property
    def has_side_effects(self) -> bool:
        """Whether ``expr`` assigns or increments (:func:`expr_has_side_effects`).

        Walked once per element and kept for the CFG's lifetime: the product
        solve reads it to skip elements no transfer can move, and every
        domain's edge refinement reads it for the block's condition.
        """
        return self.expr is not None and expr_has_side_effects(self.expr)


@dataclass(frozen=True)
class Edge:
    """A control-flow edge to ``target`` with an optional branch label."""

    target: int
    label: Optional[str] = None


@dataclass
class BasicBlock:
    index: int
    elements: list[Element] = field(default_factory=list)
    succs: list[Edge] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def condition_element(self) -> Optional[Element]:
        """The branch condition this block dispatches on, if any.

        The builder always appends the ``COND`` element last and only then
        attaches the labelled branch edges, so a block's branching condition
        — consumed by the edge-refinement layer
        (:mod:`repro.dataflow.consts`) — is its trailing element.
        """
        if self.elements and self.elements[-1].kind == COND:
            return self.elements[-1]
        return None

    def branch(self, edge: Edge) -> "tuple[Element, Optional[bool]] | None":
        """The condition ``edge`` leaves this block on, and the truth it takes.

        ``None`` when the block has no condition, or when the condition
        assigns or increments: the tested value and the value after the
        condition ran can differ (``if (x++)``), so no edge fact is sound.
        The truth is ``None`` on an edge without a ``"true"``/``"false"``
        label (``switch`` dispatch).
        """
        element = self.condition_element()
        if element is None or element.expr is None or element.has_side_effects:
            return None
        return element, _EDGE_TRUTH.get(edge.label)


#: The truth a labelled branch edge takes.
_EDGE_TRUTH = {"true": True, "false": False}


@dataclass
class CFG:
    """A per-function control-flow graph with dedicated entry/exit blocks."""

    function: str
    blocks: list[BasicBlock]
    entry: int
    exit: int

    def block(self, index: int) -> BasicBlock:
        return self.blocks[index]

    def reachable(self) -> set[int]:
        """Block indices reachable from the entry block."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for edge in self.blocks[stack.pop()].succs:
                if edge.target not in seen:
                    seen.add(edge.target)
                    stack.append(edge.target)
        return seen


@dataclass
class _LoopContext:
    break_target: Optional[int]
    continue_target: Optional[int]


class _Builder:
    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: list[BasicBlock] = []
        self.labels: dict[str, int] = {}
        self.entry = self._new_block()
        self.exit = self._new_block()

    # -- low-level graph construction ---------------------------------------

    def _new_block(self) -> int:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block.index

    def _edge(self, src: int, dst: int, label: Optional[str] = None) -> None:
        self.blocks[src].succs.append(Edge(target=dst, label=label))
        self.blocks[dst].preds.append(src)

    def _append(self, block: int, element: Element) -> None:
        self.blocks[block].elements.append(element)

    def _label_block(self, label: str) -> int:
        if label not in self.labels:
            self.labels[label] = self._new_block()
        return self.labels[label]

    # -- lowering -----------------------------------------------------------
    #
    # ``_lower(stmt, current, ctx)`` appends ``stmt``'s effects starting in
    # block ``current`` and returns the block where control continues, or
    # ``None`` when control never falls through (return/break/continue/goto).

    def _lower(self, stmt: ast.Stmt, current: int, ctx: _LoopContext) -> Optional[int]:
        if isinstance(stmt, ast.Block):
            return self._lower_sequence(stmt.stmts, current, ctx)
        if isinstance(stmt, ast.ExprStmt):
            self._append(current, Element(EXPR, stmt.expr, stmt))
            return current
        if isinstance(stmt, ast.DeclStmt):
            self._lower_declaration(stmt.decl, stmt, current)
            return current
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, current, ctx)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt, current, ctx)
        if isinstance(stmt, ast.DoWhile):
            return self._lower_do_while(stmt, current, ctx)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, current, ctx)
        if isinstance(stmt, ast.Switch):
            return self._lower_switch(stmt, current, ctx)
        if isinstance(stmt, ast.Return):
            self._append(current, Element(RETURN, stmt.value, stmt))
            self._edge(current, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            if ctx.break_target is not None:
                self._edge(current, ctx.break_target)
            return None
        if isinstance(stmt, ast.Continue):
            if ctx.continue_target is not None:
                self._edge(current, ctx.continue_target)
            return None
        if isinstance(stmt, ast.Goto):
            self._edge(current, self._label_block(stmt.label))
            return None
        if isinstance(stmt, ast.Label):
            target = self._label_block(stmt.name)
            self._edge(current, target)
            if stmt.stmt is not None:
                return self._lower(stmt.stmt, target, ctx)
            return target
        # EmptyStmt, Asm (opaque to every analysis), and anything new.
        return current

    def _lower_sequence(
        self, stmts: list[ast.Stmt], current: Optional[int], ctx: _LoopContext
    ) -> Optional[int]:
        for stmt in stmts:
            if current is None:
                # Dead code after a jump still gets (unreachable) blocks so
                # labels inside it exist and analyses can see it was skipped.
                current = self._new_block()
            current = self._lower(stmt, current, ctx)
        return current

    def _lower_declaration(self, decl: ast.Declaration, stmt: ast.Stmt, current: int) -> None:
        if decl.init is None:
            return
        for expr in initializer_expressions(decl.init):
            self._append(current, Element(DECL, expr, stmt, decl=decl))

    def _lower_if(self, stmt: ast.If, current: int, ctx: _LoopContext) -> Optional[int]:
        self._append(current, Element(COND, stmt.cond, stmt))
        then_block = self._new_block()
        self._edge(current, then_block, "true")
        then_end = self._lower(stmt.then, then_block, ctx)
        else_end: Optional[int]
        if stmt.otherwise is not None:
            else_block = self._new_block()
            self._edge(current, else_block, "false")
            else_end = self._lower(stmt.otherwise, else_block, ctx)
        else:
            else_end = current
        if then_end is None and else_end is None:
            return None
        join = self._new_block()
        if then_end is not None:
            self._edge(then_end, join)
        if else_end is not None:
            label = "false" if stmt.otherwise is None else None
            self._edge(else_end, join, label)
        return join

    def _lower_while(self, stmt: ast.While, current: int, ctx: _LoopContext) -> int:
        header = self._new_block()
        after = self._new_block()
        self._edge(current, header)
        self._append(header, Element(COND, stmt.cond, stmt))
        body = self._new_block()
        self._edge(header, body, "true")
        self._edge(header, after, "false")
        body_end = self._lower(stmt.body, body, _LoopContext(after, header))
        if body_end is not None:
            self._edge(body_end, header)
        return after

    def _lower_do_while(self, stmt: ast.DoWhile, current: int, ctx: _LoopContext) -> int:
        body = self._new_block()
        cond = self._new_block()
        after = self._new_block()
        self._edge(current, body)
        body_end = self._lower(stmt.body, body, _LoopContext(after, cond))
        if body_end is not None:
            self._edge(body_end, cond)
        self._append(cond, Element(COND, stmt.cond, stmt))
        self._edge(cond, body, "true")
        self._edge(cond, after, "false")
        return after

    def _lower_for(self, stmt: ast.For, current: int, ctx: _LoopContext) -> int:
        if isinstance(stmt.init, ast.Expr):
            self._append(current, Element(EXPR, stmt.init, stmt))
        elif isinstance(stmt.init, ast.Declaration):
            self._lower_declaration(stmt.init, stmt, current)
        header = self._new_block()
        after = self._new_block()
        self._edge(current, header)
        body = self._new_block()
        if stmt.cond is not None:
            self._append(header, Element(COND, stmt.cond, stmt))
            self._edge(header, body, "true")
            self._edge(header, after, "false")
        else:
            self._edge(header, body)
        step = self._new_block()
        body_end = self._lower(stmt.body, body, _LoopContext(after, step))
        if body_end is not None:
            self._edge(body_end, step)
        if stmt.step is not None:
            self._append(step, Element(EXPR, stmt.step, stmt))
        self._edge(step, header)
        return after

    def _lower_switch(self, stmt: ast.Switch, current: int, ctx: _LoopContext) -> int:
        self._append(current, Element(COND, stmt.cond, stmt))
        after = self._new_block()
        case_blocks = [self._new_block() for _ in stmt.cases]
        has_default = False
        for case, block in zip(stmt.cases, case_blocks):
            label = "default" if case.value is None else "case"
            has_default = has_default or case.value is None
            self._edge(current, block, label)
        if not has_default:
            self._edge(current, after, "default")
        inner = _LoopContext(after, ctx.continue_target)
        fall_through: Optional[int] = None
        for case, block in zip(stmt.cases, case_blocks):
            if fall_through is not None:
                self._edge(fall_through, block)
            fall_through = self._lower_sequence(case.stmts, block, inner)
        if fall_through is not None:
            self._edge(fall_through, after)
        return after


def build_cfg(func: ast.FuncDef) -> CFG:
    """Build the control-flow graph of ``func``'s body."""
    builder = _Builder(func.name)
    end = builder._lower(func.body, builder.entry, _LoopContext(None, None))
    if end is not None:
        builder._edge(end, builder.exit)
    return CFG(
        function=func.name,
        blocks=builder.blocks,
        entry=builder.entry,
        exit=builder.exit,
    )
