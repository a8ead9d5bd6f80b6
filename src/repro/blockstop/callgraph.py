"""Call graph construction.

BlockStop is a whole-program analysis, and the call graph is its backbone
(the paper also proposes reusing it for stack-depth checking, which
:mod:`repro.analyses.stackcheck` does).  Direct calls contribute edges
immediately; calls through function pointers are resolved by the points-to
analysis in :mod:`repro.blockstop.pointsto` and added as *indirect* edges,
labelled so reports can distinguish them (they are the main source of false
positives the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import SourceLocation


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    caller: str
    callee: str
    location: SourceLocation
    indirect: bool = False
    irqs_disabled: bool = False   # filled in by the checker's context scan


@dataclass
class CallGraph:
    """Directed graph over function names."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[str, set[str]] = field(default_factory=dict)
    reverse_edges: dict[str, set[str]] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)

    def add_node(self, name: str) -> None:
        self.nodes.add(name)
        self.edges.setdefault(name, set())
        self.reverse_edges.setdefault(name, set())

    def add_edge(self, caller: str, callee: str,
                 location: SourceLocation | None = None,
                 indirect: bool = False) -> None:
        self.add_node(caller)
        self.add_node(callee)
        self.edges[caller].add(callee)
        self.reverse_edges[callee].add(caller)
        self.call_sites.append(CallSite(
            caller=caller, callee=callee,
            location=location or SourceLocation(), indirect=indirect))

    def callees(self, name: str) -> set[str]:
        return self.edges.get(name, set())

    def callers(self, name: str) -> set[str]:
        return self.reverse_edges.get(name, set())

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """All functions reachable (forwards) from ``roots``."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def reverse_reachable(self, roots: Iterable[str]) -> set[str]:
        """All functions from which some root is reachable (backwards closure)."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.reverse_edges.get(current, ()))
        return seen

    def shortest_path(self, source: str, targets: set[str]) -> list[str]:
        """Breadth-first path from ``source`` to any function in ``targets``."""
        if source in targets:
            return [source]
        parents: dict[str, str] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for callee in sorted(self.edges.get(node, ())):
                    if callee in seen:
                        continue
                    parents[callee] = node
                    if callee in targets:
                        path = [callee]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    seen.add(callee)
                    next_frontier.append(callee)
            frontier = next_frontier
        return []

    def indirect_sites(self) -> list[CallSite]:
        return [site for site in self.call_sites if site.indirect]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.nodes))

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class IndirectCall:
    """A call through a function pointer, awaiting points-to resolution."""

    caller: str
    expr: ast.Call
    location: SourceLocation


def build_direct_callgraph(program: Program) -> tuple[CallGraph, list[IndirectCall]]:
    """Build the call graph from direct calls; collect indirect call sites."""
    graph = CallGraph()
    indirect: list[IndirectCall] = []
    for name in program.defined_function_names():
        graph.add_node(name)
    for name in program.functions:
        for node in program.syntax(name).calls:
            target = node.func
            if isinstance(target, ast.Ident):
                graph.add_edge(name, target.name, node.location, indirect=False)
            else:
                indirect.append(IndirectCall(caller=name, expr=node,
                                             location=node.location))
    return graph, indirect
