"""Shared analysis artifacts, and their plain from-scratch composition.

Every analysis in this repro is *sound* and whole-program, and all of them
consume the same handful of derived facts: the parsed and linked corpus, the
per-function symbol tables, the merged annotations, the direct call graph,
and the points-to solution for indirect calls.  :class:`SharedArtifacts`
bundles them, and it is the one input of every checker entry: errcheck,
lockcheck, stackcheck and BlockStop read the bundle and derive none of it
themselves (they name it only for type checking, as this module imports
them).  The analysis pipeline, the incremental analyzer
(:mod:`repro.service.incremental`), derives them under per-function,
per-SCC and per-shard keys; :func:`build_shared_artifacts` derives them
from a parsed program with no cache at all: for an analysis at another
precision, for a script or test that calls a checker directly, and as the
reference the pipeline is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analyses.errcheck import find_error_returning_functions
from ..annotations.attrs import AnnotationSet
from ..blockstop.blocking import BlockingInfo, derive_blocking
from ..blockstop.callgraph import CallGraph, build_direct_callgraph
from ..blockstop.checker import find_irq_handlers
from ..blockstop.pointsto import FunctionPointerAnalysis, PointsToResult, Precision
from ..dataflow.domains import FunctionFacts, solve_program_facts
from ..dataflow.interproc import Condensation, condense_callgraph, solve_summaries
from ..dataflow.summaries import FunctionSummary
from ..deputy.typesystem import TypeEnv
from ..machine.program import Program
from ..minic import ast_nodes as ast


class ArtifactCache:
    """Names kept for the repository benchmark's layer tracer; nothing
    calls them.

    ``perfbench/tracing.py``'s ``LAYER_HOOKS`` wraps these two methods for
    its ``cache.read_s`` and ``cache.write_s`` metrics, and
    ``Tracer.install`` fails on a name it cannot find.  ``run
    --cache-dir`` now reads and writes the analyzer's rows of one
    :class:`~repro.service.store.PersistentStore`, so both metrics read 0.
    The change that moves the tracer onto a span API (ROADMAP.md, *One span
    API*, step 2) deletes this class.
    """

    def _load_disk(self, key: str) -> None:
        return None

    def _store_disk(self, key: str, value) -> None:
        return None


@dataclass
class SharedArtifacts:
    """Everything the registered analyses consume, derived once per corpus.

    * ``program`` — the parsed, linked, *uninstrumented* corpus (the AST and
      type-registry artifact);
    * ``type_envs`` — per-function symbol tables (lazily filled; the
      points-to pass and the Deputy checker share the same entries);
    * ``annotations`` — merged definition+prototype annotations per function;
    * ``graph``/``pointsto`` — the direct call graph with points-to-resolved
      indirect edges for the chosen precision;
    * ``consts`` — per-function condition facts: the consts×intervals
      reduced product (:mod:`repro.dataflow.domains`) with branch-edge
      refinement — constant and interval environments per CFG block plus
      the infeasible-edge set every condition-aware solve prunes with;
      ``None`` entries mark branchless functions;
    * ``condensation`` — the SCC condensation of that graph, in bottom-up
      (reverse-topological) order, with its dependency waves (the order
      :func:`solve_summaries` solves in);
    * ``summaries`` — one interprocedural :class:`FunctionSummary` per
      function, solved callees-first over the condensation; every checker's
      cross-function knowledge comes from here;
    * ``blocking`` — the may-block classification (derived from summaries);
    * ``irq_handlers`` — functions registered as interrupt handlers;
    * ``error_returning`` — functions whose negative returns are error codes
      (annotation seeds plus the summaries' error-return sets);
    * ``unit_functions`` — translation-unit filename to the functions it
      defines, in corpus order (the parallel mode's sharding map).
    """

    program: Program
    precision: Precision
    graph: CallGraph
    pointsto: PointsToResult
    consts: dict[str, FunctionFacts | None]
    condensation: Condensation
    summaries: dict[str, FunctionSummary]
    blocking: BlockingInfo
    irq_handlers: set[str]
    error_returning: set[str]
    annotations: dict[str, AnnotationSet]
    type_envs: dict[str, TypeEnv] = field(default_factory=dict)
    unit_functions: dict[str, list[str]] = field(default_factory=dict)

    def env_for(self, name: str) -> TypeEnv | None:
        """The (shared, lazily built) type environment of function ``name``."""
        env = self.type_envs.get(name)
        if env is None:
            func = self.program.functions.get(name)
            if func is None:
                return None
            env = TypeEnv(self.program, func)
            self.type_envs[name] = env
        return env


def unit_function_map(program: Program) -> dict[str, list[str]]:
    """Map each translation unit to the functions it defines, corpus order."""
    mapping: dict[str, list[str]] = {}
    for unit in program.units:
        names = [decl.name for decl in unit.decls if isinstance(decl, ast.FuncDef)]
        mapping[unit.filename] = names
    return mapping


def build_shared_artifacts(program: Program,
                           precision: Precision = Precision.TYPE_BASED,
                           ) -> SharedArtifacts:
    """Derive every shared artifact from an already parsed corpus.

    The constant facts are solved *first* and seeded into the summary
    computation so conditionally-dead effects never reach any summary.
    Nothing is cached or reused: this is the composition the analyzer's
    keyed derivation must equal.
    """
    graph, indirect_calls = build_direct_callgraph(program)
    type_envs: dict[str, TypeEnv] = {}
    pointsto_pass = FunctionPointerAnalysis(program, precision)
    pointsto_pass.collect()
    pointsto = pointsto_pass.resolve(graph, indirect_calls, envs=type_envs)

    condensation = condense_callgraph(graph)
    consts = solve_program_facts(program)
    summaries = solve_summaries(program, graph, condensation, consts=consts)

    blocking = derive_blocking(program, graph, summaries)

    annotations = {name: program.function_annotations(name)
                   for name in program.all_function_names()}

    return SharedArtifacts(
        program=program,
        precision=precision,
        graph=graph,
        pointsto=pointsto,
        consts=consts,
        condensation=condensation,
        summaries=summaries,
        blocking=blocking,
        irq_handlers=find_irq_handlers(program),
        error_returning=find_error_returning_functions(program, summaries),
        annotations=annotations,
        type_envs=type_envs,
        unit_functions=unit_function_map(program),
    )
