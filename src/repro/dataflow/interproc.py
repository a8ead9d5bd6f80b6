"""Interprocedural summary framework: SCC-ordered bottom-up solving.

The paper's pitch is *sound whole-kernel* analysis; this module is the
substrate that makes every checker interprocedural at once.  It condenses
the (points-to-resolved) call graph into strongly connected components with
Tarjan's algorithm, orders the components bottom-up (callees before
callers), and computes one :class:`~repro.dataflow.summaries.FunctionSummary`
per function:

* acyclic components are solved in a single pass;
* recursive components (self loops, mutual recursion, cycles closed through
  a function pointer) iterate to a lattice fixpoint, with a divergence
  guard mirroring the intraprocedural solver's;
* a component's result depends only on its members, the globals, and its
  callees' summaries and header annotations — so the incremental analyzer
  can reuse clean components and re-solve only those whose inputs moved,
  and every path, serial or parallel, batch or incremental, solves in one
  process in the same wave order and gets byte-identical summaries.

One SCC-ordered sweep with memoized summaries replaces re-running every
checker to global convergence — few, cheap passes to the whole-program
fixpoint instead of many global ones.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .summaries import (
    BOTTOM_SUMMARY,
    FunctionSummary,
    SummaryContext,
    build_context,
    compute_summary,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a package cycle
    from ..blockstop.callgraph import CallGraph
    from ..machine.program import Program

#: Iteration cap per SCC before declaring the summary lattice divergent.
MAX_SCC_ITERATIONS = 64

#: How many times each SCC (keyed by its sorted member tuple) has been
#: solved in this process.  The incremental analyzer's invalidation tests
#: assert against this, the same way the engine's parse-once guarantee is
#: asserted against ``PARSE_COUNTS``.
SCC_SOLVE_COUNTS: Counter[tuple[str, ...]] = Counter()


def reset_scc_solve_counts() -> None:
    """Reset the per-SCC solve counter (used by tests)."""
    SCC_SOLVE_COUNTS.clear()


class SummaryDivergence(RuntimeError):
    """Raised when an SCC's summaries fail to reach a fixpoint."""


@dataclass
class Condensation:
    """The SCC condensation of a call graph, in bottom-up order.

    ``sccs`` lists each component as a sorted tuple of function names, in
    reverse-topological order (every callee SCC precedes its callers), which
    is exactly the bottom-up summary-computation order.  ``waves`` groups
    component indices by dependency depth: all components of wave *k* depend
    only on waves ``< k`` and are therefore mutually independent.
    """

    sccs: list[tuple[str, ...]] = field(default_factory=list)
    scc_of: dict[str, int] = field(default_factory=dict)
    scc_callees: dict[int, tuple[int, ...]] = field(default_factory=dict)
    self_loops: set[str] = field(default_factory=set)
    waves: list[tuple[int, ...]] = field(default_factory=list)

    def is_recursive(self, name: str) -> bool:
        """Whether ``name`` sits on a call cycle (incl. a direct self loop)."""
        index = self.scc_of.get(name)
        if index is None:
            return False
        return len(self.sccs[index]) > 1 or name in self.self_loops

    def recursive_functions(self) -> set[str]:
        found = {name for scc in self.sccs if len(scc) > 1 for name in scc}
        return found | set(self.self_loops)

    def members(self, name: str) -> tuple[str, ...]:
        index = self.scc_of.get(name)
        return self.sccs[index] if index is not None else (name,)


def condense_callgraph(graph: "CallGraph") -> Condensation:
    """Tarjan's SCC algorithm (iterative) over the call graph.

    Components come out in reverse-topological order — a property of
    Tarjan's completion order — so iterating ``sccs`` front to back visits
    callees before callers.  Node visit order is sorted, making component
    numbering (and therefore everything derived from it) deterministic.
    """
    nodes = sorted(graph.nodes)
    edges = {node: sorted(graph.edges.get(node, ())) for node in nodes}
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    result = Condensation()

    for root in nodes:
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator position) to survive deep
        # call chains without hitting the recursion limit.
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = edges[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index_of:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                scc_index = len(result.sccs)
                result.sccs.append(tuple(sorted(component)))
                for member in component:
                    result.scc_of[member] = scc_index

    for node in nodes:
        if node in edges[node]:
            result.self_loops.add(node)

    # Condensed edges (caller SCC -> callee SCCs) and dependency waves.
    callees: dict[int, set[int]] = {i: set() for i in range(len(result.sccs))}
    for node in nodes:
        src = result.scc_of[node]
        for callee in edges[node]:
            dst = result.scc_of[callee]
            if dst != src:
                callees[src].add(dst)
    result.scc_callees = {i: tuple(sorted(deps)) for i, deps in callees.items()}

    depth: dict[int, int] = {}
    for index in range(len(result.sccs)):  # reverse-topo: deps come first
        deps = result.scc_callees[index]
        depth[index] = 1 + max((depth[d] for d in deps), default=-1)
    waves: dict[int, list[int]] = {}
    for index, d in depth.items():
        waves.setdefault(d, []).append(index)
    result.waves = [tuple(sorted(waves[d])) for d in sorted(waves)]
    return result


def callgraph_fingerprint(graph: "CallGraph") -> str:
    """A stable content hash of the call graph's nodes and edges.

    The engine mixes this into the summary artifact's cache key so any
    change to the graph (new corpus function, different points-to precision
    resolving different indirect edges) invalidates persisted summaries.
    """
    digest = hashlib.sha256()
    for node in sorted(graph.nodes):
        digest.update(node.encode())
        digest.update(b"->")
        for callee in sorted(graph.edges.get(node, ())):
            digest.update(callee.encode())
            digest.update(b",")
        digest.update(b";")
    return digest.hexdigest()[:32]


def scc_local_key(
    scc: tuple[str, ...],
    graph: "CallGraph",
    body_hashes: dict[str, str],
    globals_fp: str = "",
) -> str:
    """One component's local key: ``globals_fp`` plus each member's body
    hash, sorted out-edges and sorted indirect callees (see
    :func:`scc_fingerprints`)."""
    digest = hashlib.sha256()
    digest.update(globals_fp.encode())
    for name in scc:
        digest.update(b"|")
        digest.update(name.encode())
        digest.update(b"=")
        digest.update(body_hashes.get(name, f"undef:{name}").encode())
        for callee in sorted(graph.edges.get(name, ())):
            digest.update(b",")
            digest.update(callee.encode())
        for callee in sorted(graph.indirect.get(name, ())):
            digest.update(b"*")
            digest.update(callee.encode())
    return digest.hexdigest()[:32]


def scc_fingerprints(
    condensation: Condensation,
    graph: "CallGraph",
    body_hashes: dict[str, str],
    globals_fp: str = "",
) -> list[str]:
    """One *local* cache key per SCC, in condensation order.

    ``key(scc) = H(globals_fp, members with body hash, out-edges and
    indirect callees)`` covers everything the component's fixpoint reads
    from inside it:

    * a member's *body* (its direct calls included) via ``body_hashes``;
    * its full resolved out-edge list, so a points-to change that adds or
      drops an edge — even one landing back inside the same component —
      changes the key;
    * which of those edges its indirect calls resolve to (the graph's
      ``indirect``, which the summary context reads as
      ``resolved_indirect``), so a points-to change that makes an existing
      direct edge indirect as well changes the key too;
    * prototypes, annotations, defines, type layouts and analysis
      parameters via ``globals_fp`` (the caller folds those in).

    What the fixpoint reads about an out-of-component callee — its summary,
    and the ``blocking``/``blocking_if_wait``/``errcodes`` annotations of
    its header — is not here: the incremental analyzer completes each key
    with those once the callees are solved, so a body edit that leaves its
    function's summary unchanged re-keys no caller (early cutoff).

    Functions without a definition hash as ``undef:<name>``; their
    observable behavior is annotation-only, which ``globals_fp`` covers.
    """
    return [scc_local_key(scc, graph, body_hashes, globals_fp) for scc in condensation.sccs]


# ---------------------------------------------------------------------------
# The bottom-up solver
# ---------------------------------------------------------------------------


def solve_scc(
    scc: tuple[str, ...],
    ctx: SummaryContext,
    graph: "CallGraph",
    solved: dict[str, FunctionSummary],
) -> dict[str, FunctionSummary]:
    """Iterate one SCC's summaries to a fixpoint.

    ``solved`` holds the summaries of every earlier (callee-side) SCC.
    Members start at bottom; each round recomputes every member from the
    previous round's iterates.  Acyclic singletons converge in one round by
    construction; recursive components ascend the (finite, capped) lattice
    until two consecutive rounds agree.
    """
    SCC_SOLVE_COUNTS[tuple(scc)] += 1
    current: dict[str, FunctionSummary] = {name: BOTTOM_SUMMARY for name in scc}

    def lookup(callee: str) -> FunctionSummary | None:
        summary = current.get(callee)
        if summary is not None:
            return summary
        return solved.get(callee)

    recursive = len(scc) > 1 or any(name in graph.edges.get(name, ()) for name in scc)
    for _ in range(MAX_SCC_ITERATIONS):
        next_round = {name: compute_summary(name, ctx, lookup) for name in scc}
        changed = next_round != current
        current = next_round
        if not changed or not recursive:
            break
    else:
        raise SummaryDivergence(
            f"summaries did not converge for SCC {scc[:4]}"
            f"{'...' if len(scc) > 4 else ''} after {MAX_SCC_ITERATIONS} rounds"
        )

    # Stack depth: the deepest *bounded* chain.  The cycle itself is
    # unbounded (members are flagged recursive and need the run-time
    # check), but a bounded chain may still pass through every member of
    # the SCC once before escaping to an out-of-SCC callee — so each
    # member's depth is the sum of the SCC's frames plus the deepest
    # escape.  For the common acyclic singleton this reduces to
    # frame + max(callee depth).
    scc_set = set(scc)
    defined = [name for name in scc if current[name].defined]
    total_frames = sum(current[name].frame_size for name in defined)
    escape = 0
    for name in defined:
        for callee in graph.edges.get(name, ()):
            if callee in scc_set:
                continue
            callee_summary = solved.get(callee)
            if callee_summary is not None and callee_summary.defined:
                escape = max(escape, callee_summary.stack_depth)
    for name in defined:
        current[name] = replace(current[name], stack_depth=total_frames + escape)
    return current


def solve_summaries(
    program: "Program",
    graph: "CallGraph",
    condensation: Condensation | None = None,
    ctx: SummaryContext | None = None,
    consts: dict | None = None,
) -> dict[str, FunctionSummary]:
    """Compute every function's summary, bottom-up over the condensation.

    ``consts`` pre-seeds the context's per-function constant facts (the
    pipeline's artifact); without it each function's facts are solved
    lazily the first time its summary computation needs them, by the same
    solve, so the summaries are the same pruned-CFG ones.
    """
    condensation = condensation or condense_callgraph(graph)
    ctx = ctx or build_context(program, graph, consts=consts)
    solved: dict[str, FunctionSummary] = {}
    for wave in condensation.waves:
        for index in wave:
            solved.update(solve_scc(condensation.sccs[index], ctx, graph, solved))
    return solved
