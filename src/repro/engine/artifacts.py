"""Shared analysis artifacts and the content-keyed artifact cache.

Every analysis in this repro is *sound* and whole-program, and all of them
consume the same handful of derived facts: the parsed and linked corpus, the
per-function symbol tables, the merged annotations, the direct call graph,
and the points-to solution for indirect calls.  Before the engine existed
each checker re-derived those facts from scratch (and the harness re-parsed
the corpus per experiment); the :class:`ArtifactCache` memoizes them under
content-derived keys so a whole-corpus run parses each translation unit
exactly once, and repeated runs (CI smoke jobs, the harness) can reuse a
previous run's parse, constant facts and summaries from the optional
on-disk tier: the ``artifact`` space of a SQLite
:class:`~repro.service.store.PersistentStore`.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

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
from ..kernel.corpus import CorpusFile
from ..machine.program import Program
from ..minic import ast_nodes as ast

#: The store space of the batch engine's whole-corpus artifacts.
_SPACE = "artifact"


class ArtifactCache:
    """A content-keyed memo table over an optional on-disk store.

    Keys are derived from the *content* that determines an artifact (source
    text, preprocessor defines, analysis parameters), never from object
    identity, so two engines over the same corpus share work and any change
    to a source file invalidates everything derived from it.  With a
    ``cache_dir`` the persisted artifacts live in the ``artifact`` space of
    a :class:`~repro.service.store.PersistentStore` there, LRU-bounded by
    ``max_mb`` (``None`` or 0: no bound); a value is a hit only once it
    has loaded.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_mb: float | None = None) -> None:
        self._memory: dict[str, Any] = {}
        self.store = None
        if cache_dir is not None:
            # Imported here: repro.service's package init imports this module.
            from ..service.store import PersistentStore

            self.store = PersistentStore(cache_dir, max_mb=max_mb)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    @property
    def evictions(self) -> int:
        return self.store.evictions if self.store is not None else 0

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def content_key(kind: str,
                    files: tuple[CorpusFile, ...] = (),
                    defines: dict[str, str] | None = None,
                    extra: dict[str, Any] | None = None) -> str:
        """A stable key for ``kind`` derived from the inputs that produce it.

        The package's source digest is part of every key: artifacts depend
        on the analysis/parser *code* as much as on the corpus, so a
        persisted cache must not serve parses made by other code.
        """
        from .. import source_digest

        digest = hashlib.sha256()

        def feed(part: str) -> None:
            # Length-prefix every field so adjacent fields can never collide
            # by shifting bytes between them (e.g. 'a.c'+'xb' vs 'a.cx'+'b').
            raw = part.encode()
            digest.update(f"{len(raw)}:".encode())
            digest.update(raw)

        feed(source_digest())
        feed(kind)
        for corpus_file in files:
            feed(corpus_file.filename)
            feed(corpus_file.source)
            feed("1" if corpus_file.kernel else "0")
        feed(json.dumps(defines or {}, sort_keys=True))
        feed(json.dumps(extra or {}, sort_keys=True, default=str))
        return f"{kind}-{digest.hexdigest()[:32]}"

    # -- lookup -------------------------------------------------------------

    def lookup(self, key: str, persist: bool = True) -> Any:
        """The artifact under ``key`` from memory or disk, or ``None``.

        The first half of :meth:`get_or_build`: it counts hits and disk
        hits.  A ``None`` is a miss, which the caller fills with :meth:`put`.
        """
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        value = self._load_disk(key) if persist else None
        if value is not None:
            self.hits += 1
            self.disk_hits += 1
            self._memory[key] = value
        return value

    def put(self, key: str, value: Any, persist: bool = True) -> Any:
        """Keep ``value``, built after a :meth:`lookup` miss, under ``key``:
        the second half of :meth:`get_or_build`, which counts the miss."""
        self.misses += 1
        self._memory[key] = value
        if persist:
            self._store_disk(key, value)
        return value

    def get_or_build(self, key: str, builder: Callable[[], Any],
                     persist: bool = True) -> Any:
        """Return the artifact under ``key``, building (and storing) on miss."""
        value = self.lookup(key, persist)
        return value if value is not None else self.put(key, builder(), persist)

    # -- disk layer ---------------------------------------------------------

    def _load_disk(self, key: str) -> Any:
        """The stored artifact, or ``None``: a failed read is a miss."""
        if self.store is None:
            return None
        try:
            value = self.store.get(_SPACE, key)
            if value is not None:
                # get() only queues the LRU touch; a run has at most three
                # disk hits, so refresh the row's clock now.
                self.store.touch(_SPACE, ())
        except sqlite3.Error:
            return None
        return value

    def _store_disk(self, key: str, value: Any) -> None:
        if self.store is None:
            return
        try:
            self.store.put(_SPACE, key, value)
        except Exception:
            # Unpicklable artifacts, or a store that refuses the write,
            # simply stay memory-only.
            pass


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
                           phase_solver=None) -> SharedArtifacts:
    """Derive every shared artifact from an already parsed corpus.

    The constant facts are solved *first* and seeded into the summary
    computation so conditionally-dead effects never reach any summary.
    ``phase_solver(program, graph, pointsto, condensation)`` may be
    supplied to return ``(consts, summaries)`` from elsewhere — the engine
    passes its cache-aware solver, which may solve the facts as per-unit
    tasks on its work-stealing executor; the default solves them inline.
    The condensation is built first either way — it depends only on the
    resolved call graph.
    """
    graph, indirect_calls = build_direct_callgraph(program)
    type_envs: dict[str, TypeEnv] = {}
    pointsto_pass = FunctionPointerAnalysis(program, precision)
    pointsto_pass.collect()
    pointsto = pointsto_pass.resolve(graph, indirect_calls, envs=type_envs)

    condensation = condense_callgraph(graph)
    if phase_solver is not None:
        consts, summaries = phase_solver(program, graph, pointsto,
                                         condensation)
    else:
        consts = solve_program_facts(program)
        summaries = solve_summaries(program, graph, condensation,
                                    consts=consts)

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
