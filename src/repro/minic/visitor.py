"""Generic AST traversal and rewriting utilities.

Two base classes are provided:

* :class:`Visitor` — read-only traversal with ``visit_<NodeClass>`` hooks.
* :class:`Transformer` — path-copying rewrite used by the instrumenters;
  returning a new node replaces the old one, returning the input (or
  ``None``) keeps it.

Both walk child nodes automatically, so a concrete visitor only overrides the
hooks it cares about.

A :class:`Transformer` never modifies the tree it is given: it builds new
nodes only along the paths to the nodes its hooks replaced and shares every
untouched subtree with the input (path copying, after Driscoll et al.,
*Making Data Structures Persistent*).  A rewrite that changes nothing returns
its input object, so callers compare by identity to learn whether anything
moved, and an analysis can rewrite a shared, linked program without copying
it first.

Every traversal here reads one table: the names of each node class's fields
that can hold children (``_child_fields``), built once per class from
``dataclasses.fields``: reflecting over a dataclass at every visited node
would dominate the cost of an analysis run.
"""

from __future__ import annotations

import copy
from dataclasses import fields, is_dataclass
from typing import Any, Iterator

from . import ast_nodes as ast

#: Field annotations (as written in :mod:`ast_nodes`) that never hold a node
#: or a list of nodes.  Any other field is read and type-tested per node.
_LEAF_ANNOTATIONS = frozenset({
    "str", "int", "bool", "SourceLocation", "CType", "Optional[CType]",
    "AnnotationSet", "Optional[list[Optional[str]]]",
})

#: Node class -> names of the fields that can hold children, in field order.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _child_fields(cls: type) -> tuple[str, ...]:
    """Names of ``cls``'s fields that can hold AST children (memoized)."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = (tuple(spec.name for spec in fields(cls)
                       if spec.type not in _LEAF_ANNOTATIONS)
                 if is_dataclass(cls) else ())
        _CHILD_FIELDS[cls] = names
    return names


def iter_child_nodes(node: ast.Node) -> Iterator[ast.Node]:
    """Yield the direct AST-node children of ``node``."""
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Yield ``node`` and all its descendants in pre-order.

    An explicit stack rather than recursive generators: each child is pushed
    once, in reverse, so the first child is the next node yielded.  A node's
    children are read when the walk resumes after yielding it.
    """
    Node = ast.Node
    table = _CHILD_FIELDS
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        names = table.get(type(node))
        if names is None:
            names = _child_fields(type(node))
        for name in reversed(names):
            value = getattr(node, name)
            if isinstance(value, Node):
                push(value)
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, Node):
                        push(item)


class Visitor:
    """Read-only traversal with per-node-class hooks."""

    def visit(self, node: ast.Node) -> Any:
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: ast.Node) -> None:
        for child in iter_child_nodes(node):
            self.visit(child)


class Transformer:
    """Path-copying rewrite: hooks return replacement nodes.

    ``visit(node)`` rewrites ``node``'s children first.  When none of them
    changed (by identity) the ``visit_<NodeClass>`` hook receives ``node``
    itself; otherwise it receives a shallow copy of ``node`` with only the
    changed fields set.  A list field gets a new list only when one of its
    items changed or a hook returned a list to splice in its place.

    The one contract a hook must keep: never mutate its argument (or any
    node reachable from it), since that node may be the caller's own.  Build
    and return a new node instead.
    """

    def visit(self, node: ast.Node) -> ast.Node:
        node = self._transform_children(node)
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            replacement = method(node)
            return node if replacement is None else replacement
        return node

    def _transform_children(self, node: ast.Node) -> ast.Node:
        """``node`` itself, or a shallow copy carrying its rewritten children."""
        changes: dict[str, Any] = {}
        for name in _child_fields(type(node)):
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                replacement = self.visit(value)
                if replacement is not value:
                    changes[name] = replacement
            elif isinstance(value, list):
                items: list = []
                moved = False
                for item in value:
                    replacement = self.visit(item) if isinstance(item, ast.Node) else item
                    if replacement is item:
                        items.append(item)
                        continue
                    moved = True
                    if isinstance(replacement, list):
                        items.extend(replacement)
                    else:
                        items.append(replacement)
                if moved:
                    changes[name] = items
        if not changes:
            return node
        twin = copy.copy(node)
        vars(twin).update(changes)
        return twin


def initializer_expressions(init: ast.Initializer) -> list[ast.Expr]:
    """Every scalar expression inside an initializer (flattening brace lists).

    Lifted out of the BlockStop checker: control-flow construction
    (:mod:`repro.dataflow.cfg`) needs the expressions a declaration actually
    evaluates, which the generic ``iter_child_nodes`` does not isolate.
    """
    if init.is_list:
        collected: list[ast.Expr] = []
        for element in init.elements or []:
            collected.extend(initializer_expressions(element))
        return collected
    return [init.expr] if init.expr is not None else []


def collect(node: ast.Node, node_type: type) -> list[ast.Node]:
    """Collect all descendants of ``node`` that are instances of ``node_type``."""
    return [n for n in walk(node) if isinstance(n, node_type)]
