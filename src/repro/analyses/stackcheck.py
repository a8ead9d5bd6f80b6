"""Future analysis (§3.1): stack-depth bounding.

Given the (BlockStop) call graph and a per-function stack-frame estimate, the
longest call chain must fit in the kernel's 4 or 8 kB stack.  Recursive
cycles cannot be bounded statically and are reported as needing a run-time
check, exactly as the paper proposes.

Since the interprocedural summary framework this analysis no longer keeps a
private depth-first cycle detector: recursion is read off the shared SCC
condensation (:func:`repro.dataflow.interproc.condense_callgraph` — any
function in a non-trivial component or with a self loop), and the worst-case
depth is the ``stack_depth`` the bottom-up summary sweep already computed
(frame size + deepest bounded callee chain, callees-first over the
condensation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dataflow.summaries import FRAME_OVERHEAD, function_frame_size
from ..machine.program import Program
from ..minic import ast_nodes as ast

if TYPE_CHECKING:  # the engine imports this module
    from ..engine.artifacts import SharedArtifacts

KERNEL_STACK_BYTES = 8 * 1024


@dataclass
class StackReport:
    """Result of the stack-depth analysis."""

    frame_sizes: dict[str, int] = field(default_factory=dict)
    max_depth: dict[str, int] = field(default_factory=dict)
    deepest_chain: list[str] = field(default_factory=list)
    recursive_functions: set[str] = field(default_factory=set)
    stack_limit: int = KERNEL_STACK_BYTES

    @property
    def worst_case(self) -> int:
        return max(self.max_depth.values(), default=0)

    @property
    def fits(self) -> bool:
        return self.worst_case <= self.stack_limit

    @property
    def runtime_checks_needed(self) -> set[str]:
        """Recursive functions need run-time stack checks."""
        return set(self.recursive_functions)


def frame_size(program: Program, func: ast.FuncDef) -> int:
    """Estimate one function's stack frame: locals + parameters + overhead.

    A ``stacksize(n)`` annotation overrides the estimate, mirroring the
    paper's "stack space annotations on each function".  (The estimator
    itself lives in the shared summary domain; this is the historical
    entry point.)
    """
    return function_frame_size(program, func)


def analyse_stack(artifacts: SharedArtifacts,
                  stack_limit: int = KERNEL_STACK_BYTES) -> StackReport:
    """Compute worst-case stack depth for every function.

    Reads the pipeline's points-to-resolved call graph, its condensation
    and its summaries from ``artifacts``: the same basis every other
    checker uses, indirect edges included.
    """
    program = artifacts.program
    graph = artifacts.graph
    condensation = artifacts.condensation
    summaries = artifacts.summaries
    report = StackReport(stack_limit=stack_limit)
    report.recursive_functions = {
        name for name in condensation.recursive_functions()
        if name in program.functions}
    for name in program.functions:
        summary = summaries.get(name)
        if summary is not None and summary.defined:
            report.frame_sizes[name] = summary.frame_size
            report.max_depth[name] = summary.stack_depth
        else:   # pragma: no cover - every defined function has a summary
            report.frame_sizes[name] = FRAME_OVERHEAD
            report.max_depth[name] = FRAME_OVERHEAD

    # Reconstruct the deepest chain for the report.
    if report.max_depth:
        current = max(sorted(report.max_depth),
                      key=lambda n: report.max_depth[n])
        chain = [current]
        while True:
            scc = set(condensation.members(current))
            callees = [c for c in graph.callees(current)
                       if c in report.max_depth and c not in scc]
            if not callees:
                break
            # Sorted so ties break alphabetically, not by hash-seed order:
            # the rendered chain must be identical across runs.
            next_callee = max(sorted(callees), key=lambda n: report.max_depth[n])
            if report.max_depth[next_callee] >= report.max_depth[current]:
                break
            chain.append(next_callee)
            current = next_callee
        report.deepest_chain = chain
    return report
