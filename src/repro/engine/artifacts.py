"""Shared analysis artifacts and the content-keyed artifact cache.

Every analysis in this repro is *sound* and whole-program, and all of them
consume the same handful of derived facts: the parsed and linked corpus, the
per-function symbol tables, the merged annotations, the direct call graph,
and the points-to solution for indirect calls.  Before the engine existed
each checker re-derived those facts from scratch (and the harness re-parsed
the corpus per experiment); the :class:`ArtifactCache` memoizes them under
content-derived keys so a whole-corpus run parses each translation unit
exactly once, and repeated runs (CI smoke jobs, the harness) can reuse a
previous run's parse via the optional on-disk layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
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


class ArtifactCache:
    """A content-keyed memo table with an optional on-disk pickle layer.

    Keys are derived from the *content* that determines an artifact (source
    text, preprocessor defines, analysis parameters), never from object
    identity, so two engines over the same corpus share work and any change
    to a source file invalidates everything derived from it.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_mb: float | None = None) -> None:
        self._memory: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: On-disk budget in bytes; ``None`` disables eviction.  A daemon
        #: run accumulates one pickle per content key forever otherwise.
        self.max_bytes = (int(max_mb * 1024 * 1024)
                          if max_mb is not None else None)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

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

    def get_or_build(self, key: str, builder: Callable[[], Any],
                     persist: bool = True) -> Any:
        """Return the artifact under ``key``, building (and storing) on miss."""
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        if persist:
            value = self._load_disk(key)
            if value is not None:
                self.hits += 1
                self.disk_hits += 1
                self._memory[key] = value
                return value
        self.misses += 1
        value = builder()
        self._memory[key] = value
        if persist:
            self._store_disk(key, value)
        return value

    def contains(self, key: str) -> bool:
        if key in self._memory:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer, if any, survives)."""
        self._memory.clear()

    # -- disk layer ---------------------------------------------------------

    def _disk_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    def _load_disk(self, key: str) -> Any:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except Exception:
            # A stale or truncated entry is treated as a miss.
            return None
        try:
            # Touch on read: mtime doubles as the LRU clock for eviction.
            os.utime(path)
        except OSError:
            pass
        return value

    def _store_disk(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            tmp = path.with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except Exception:
            # Unpicklable artifacts simply stay memory-only.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self._evict_lru()

    def _evict_lru(self) -> None:
        """Drop least-recently-used pickles until the dir fits the budget."""
        if self.max_bytes is None or self.cache_dir is None:
            return
        entries = []
        for path in self.cache_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1


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
      (reverse-topological) order, with its parallel-scheduling waves;
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
                           summary_solver=None,
                           consts_solver=None,
                           phase_solver=None) -> SharedArtifacts:
    """Derive every shared artifact from an already parsed corpus.

    ``summary_solver(program, graph, condensation, consts)`` and
    ``consts_solver(program)`` may be supplied to compute the function
    summaries / constant facts elsewhere — the engine passes cache-aware,
    optionally pool-backed solvers; the defaults solve them inline.  The
    constant facts are solved *first* and seeded into the summary
    computation so conditionally-dead effects never reach any summary.

    ``phase_solver(program, graph, pointsto, condensation)`` replaces both:
    it returns ``(consts, summaries)`` in one call, letting the engine's
    work-stealing executor overlap the two phases over a single dependency
    graph (per-TU constant facts feed exactly the SCCs whose members they
    cover, so summary work starts before the last TU's facts are solved).
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
        if consts_solver is not None:
            consts = consts_solver(program)
        else:
            consts = solve_program_facts(program)

        if summary_solver is not None:
            summaries = summary_solver(program, graph, condensation, consts)
        else:
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
