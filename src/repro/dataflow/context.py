"""The shared analysis context every checker adapter consumes.

Before this type existed, each checker entry point took its own ad-hoc
positional tail of prebuilt artifacts (``run_blockstop(program, precision,
runtime_checks, graph, blocking, irq_handlers, summaries, consts)``,
``collect_lock_facts(program, functions, summaries, consts)``, …) and the
engine threaded each artifact by hand per analysis.  :class:`AnalysisContext`
is the one bundle the engine builds once per run from its
``SharedArtifacts`` and hands to every checker: the parsed program, the
Deputy type environments, the call graph, the interprocedural summaries and
the solved condition facts (the consts×intervals product).

This lives in ``dataflow`` rather than ``engine`` on purpose: the checkers
in :mod:`repro.analyses` must not import the engine (the engine imports
*them*), and the engine already depends on dataflow — so this is the lowest
layer both sides can share without a cycle.

Every field except ``program`` defaults to ``None``: the standalone checker
entry points (kept as thin wrappers for scripts and tests) build a context
with only what they were given, and each checker computes what is missing
exactly as it did before the consolidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.program import Program


@dataclass
class AnalysisContext:
    """Prebuilt artifacts shared by all checkers in one engine run."""

    #: The linked whole-kernel program under analysis.
    program: "Program"
    #: Deputy per-function type environments (``deputy.envs.EnvCache``).
    type_envs: Optional[Any] = None
    #: The whole-program call graph (``analyses.callgraph.CallGraph``).
    call_graph: Optional[Any] = None
    #: SCC-ordered interprocedural summaries, name -> ``FunctionSummary``.
    summaries: Optional[dict] = None
    #: Solved condition facts, name -> ``FunctionFacts`` (or ``None`` for
    #: branchless functions); the consts×intervals reduced product.
    facts: Optional[dict] = None
    #: The subset of function names this shard analyses (``None`` = all).
    functions: Optional[list] = None
    #: Checker-specific prebuilt inputs that have no cross-checker home
    #: (blockstop's blocking/irq sets, errcheck's error-returning names).
    extras: dict = field(default_factory=dict)
