"""Incremental re-analysis: per-TU parse reuse and per-SCC summary caching.

The :class:`IncrementalAnalyzer` is the one analysis pipeline: the service
runs a pass per edit, and a batch run (:class:`repro.engine.AnalysisEngine`)
is a pass whose lookups all miss, a clean build being an incremental build
from an empty store.  It keys its work at the granularity the dependency
structure actually has:

* **parses** per translation unit — an edit re-parses only the edited file
  (each file is compared with the text the last pass saw; nothing is
  hashed), against snapshots of the shared macro/typedef/enum tables taken
  when the corpus was last parsed (the corpus models kernel-wide headers by
  sharing those tables across files, so re-parsing one file in the middle
  of the sequence needs the tables rolled back to that point and verified
  after).  A pass that re-parsed no unit — a no-op, a break whose unit
  keeps serving its last good parse, or the fix back to that text —
  carries the last pass's link, records, artifacts and reports whole and
  builds only its diagnostics;
* **constant facts** per function, keyed on the function's rendered body;
* **summaries** per call-graph SCC, keyed on what the component's
  fixpoint reads: a *local* key
  (:func:`repro.dataflow.interproc.scc_fingerprints`: the globals, each
  member's body hash, resolved out-edges and indirect callees) completed,
  once the callees are solved, with ``name:summary_hash:sig_hash`` of
  every out-of-component callee — its summary, and the header annotations
  the summary context reads.  So editing one function re-solves its component, and a caller
  only when the edited function's summary or header moved (early cutoff,
  as in *Build Systems à la Carte*).  One wave loop, in this process,
  takes each component from memory, else from the persistent store, else
  from a fresh fixpoint; a component whose members' bodies, out-edges and
  callees did not move keeps the last pass's key without hashing anything,
  matched by its member tuple when an added or dropped function or call
  edge rebuilt the condensation;
* **checker shards** per (analysis, translation unit), keyed on the unit's
  function bodies plus exactly what the analysis declares its shard reads
  about functions outside the unit (:class:`~repro.engine.analyses.ShardReads`):
  the functions' SCC keys, which cover their callees' summaries and
  headers, for BlockStop, errcheck and lockcheck; the signature hash of
  every name the bodies reference for Deputy; nothing for CCount.
  Stackcheck, whose findings carry no location, has one shard keyed on
  the call-graph fingerprint and every summary hash.  Keys carry over:
  a pass hashes a unit's key again only when the unit was re-parsed, the
  globals or the analysis's salt moved, or what the key reads outside the
  unit moved, and merges an analysis again only when a payload or an
  artifact its merge reads moved.  So a body edit that keeps its
  function's summary and signature keys and re-runs each per-unit
  analysis only in the edited unit, and stackcheck not at all;
* **corpus-wide artifacts** — the call graph with points-to, the
  condensation, the IRQ handlers, the annotations map, the summary
  context, and the blocking and error-return sets — are the last pass's
  whenever the inputs they read did not move.  Each function's record
  carries its contributions (a structure hash of what the graph scans
  read, its merged annotations, its type environment), so a pass compares
  records instead of re-walking the corpus, and a no-op pass recomputes
  none of them (``IncrementalStats.rebuilt_artifacts``).  The comparisons
  are of content hashes, so an artifact also survives a full re-parse
  that changed nothing it reads.

Two invariants keep this sound:

1. *Correctness never depends on the parse reuse.*  Cache keys are derived
   from rendered content (macro-expanded ASTs, type-definition renders,
   location streams), not from object identity.  An in-place re-parse is
   accepted only when its effect on the shared parse-time tables equals
   the old parse's; when the edit changed a macro, a typedef, an enum
   constant or a type definition, or the re-parse failed, the analyzer
   falls back to a full re-parse of the corpus.  A unit's top-level
   declarations (its globals and prototypes) are not part of that effect:
   no later unit's parse reads them, linking writes nothing into a parsed
   unit, and each pass that re-parsed a unit links again, so a global or
   prototype edit re-parses that unit alone.  All derived
   stores hold plain data (summaries, constant facts, shard payload dicts;
   the same records the persistent store pickles), so they remain valid
   across that fallback and keep their hits.
2. *Dirty components re-solve from bottom.*  A dirty SCC starts at the
   lattice bottom exactly as a cold solve does, with clean dependency
   summaries supplied read-only — the least fixpoint is the same one a
   from-scratch run computes, so incremental reports are byte-identical
   with batch reports by construction (the invalidation tests assert
   this literally).
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

from .. import source_digest
from ..analyses.errcheck import find_error_returning_functions
from ..annotations.attrs import AnnotationSet
from ..blockstop.blocking import derive_blocking
from ..blockstop.callgraph import build_direct_callgraph
from ..blockstop.checker import find_irq_handlers
from ..blockstop.pointsto import FunctionPointerAnalysis, Precision
from ..dataflow.domains import (
    DEFAULT_DOMAINS,
    domain_fingerprint,
    solve_program_facts,
)
from ..dataflow.interproc import (
    callgraph_fingerprint,
    condense_callgraph,
    scc_fingerprints,
    scc_local_key,
    solve_scc,
)
from ..dataflow.summaries import FunctionSummary, SummaryContext, build_context
from ..deputy.checker import DeputyOptions
from ..deputy.typesystem import TypeEnv
from ..engine.analyses import (
    ANALYSIS_ORDER,
    AnalysisReport,
    ShardReads,
    diagnostics_report,
    make_registry,
)
from ..engine.artifacts import SharedArtifacts, unit_function_map
from ..engine.core import EngineReport, summary_stats
from ..engine.scheduler import Task, WorkStealingExecutor, worker_count
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..kernel.build import ParseDiagnostic, _parse_file, link_tolerant
from ..kernel.corpus import KERNEL_FILES, CorpusFile
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import MiniCError
from ..minic.pretty import PrettyPrinter
from ..minic.source import Preprocessor
from ..minic.symtab import TypeRegistry
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _summary_hash(summary: FunctionSummary) -> str:
    """A summary's content hash, equal across processes (``hash()`` is
    salted per process, and store keys fold these in)."""
    return _sha(repr(summary))


@dataclass(frozen=True)
class _TableSnapshot:
    """The shared parse-time state between two files of the corpus sequence.

    Macros, typedefs and enum constants are pure *parse-time* tables: the
    parser consults them to classify tokens and resolve type names, and
    nothing reads them after linking.  They can therefore be saved and
    restored wholesale around a single file's re-parse.  Struct/enum
    objects cannot (later files hold references into them), so for those
    only the key sets, completion sets and the anonymous-tag counter are
    recorded; completions are undone in place.
    """

    macros: dict[str, str]
    typedefs: dict[str, object]
    #: Typedef name -> the render of the type it names.
    typedef_renders: dict[str, str]
    enum_constants: dict[str, int]
    struct_keys: frozenset[str]
    enum_keys: frozenset[str]
    structs_complete: frozenset[str]
    enums_complete: frozenset[str]
    anon: int


@dataclass(frozen=True)
class _UnitEffect:
    """What parsing one file did to the shared tables, compared with ``==``.

    The pure tables (macros, typedef renders, enum constants, the
    anonymous-tag counter) are absolute values: a re-parse starts from the
    file's ``pre`` snapshot exactly, so its ending state equals the old one
    iff the file's contribution is unchanged.  Completions are *deltas*
    from the state the parse started in — the registry legitimately still
    holds types created by *later* files (their objects are never rolled
    back; downstream units hold references into them), so the absolute
    sets can never match a mid-corpus record's sequential snapshot — and
    carry the completed structs' and enums' renders.  Bare tag *interning*
    is deliberately not part of the effect: first mention of an unknown
    ``struct s`` just creates the shared registry object that any unit
    would create identically, the parser never consults completeness for
    it (layout is computed after linking), and named creation moves no
    counter — so it cannot change how a downstream unit parses.  Nor are
    the file's top-level declarations: no later file's parse reads them,
    and linking, which does, is redone by every pass that re-parsed a unit.
    """

    macros: dict[str, str]
    typedef_renders: dict[str, str]
    enum_constants: dict[str, int]
    anon: int
    structs_completed: tuple[str, ...]
    enums_completed: tuple[str, ...]
    struct_renders: dict[str, str]
    enum_members: dict[str, dict[str, int]]


@dataclass
class _UnitRecord:
    """One corpus slot: its last good parse and how it changed the tables."""

    filename: str
    #: The source that produced ``unit`` (the *last good* source; on a
    #: parse error this keeps serving while ``seen`` holds the broken text
    #: so it isn't futilely re-parsed every pass).
    corpus_file: CorpusFile
    #: The file as the last pass saw it: a pass re-parses the unit only
    #: when its file differs.
    seen: CorpusFile
    unit: ast.TranslationUnit | None
    diagnostic: ParseDiagnostic | None
    pre: _TableSnapshot
    post: _TableSnapshot
    #: None when the file has no parse to serve.
    effect: _UnitEffect | None = None
    #: The rendered top-level declarations of ``unit`` and the typedefs its
    #: parse set, which the globals fingerprint folds.
    decl_render: str = ""
    #: Each struct the parse completed: its fields, size and alignment.  A
    #: failed re-parse rolls the completions back, then puts these and
    #: ``effect.enum_members`` back rather than parsing the unit again.
    layouts: dict[str, tuple[list, int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class _FunctionRecord:
    """What one pass derived from a linked FuncDef, for the next pass.

    A unit that is not re-parsed keeps its FuncDef objects, and neither
    linking nor any analysis writes into a parsed unit, so the syntax
    record, the hashes, the referenced names and the type environment
    carry over as long as the same object is linked again.
    """

    func: ast.FuncDef
    syntax: FunctionSyntax
    sem_hash: str
    loc_hash: str
    #: Hash of the rendered header (storage, return type, name, parameters
    #: with their annotations, function annotations): all that
    #: ``Program.function_type`` tells another function's Deputy shard.
    sig_hash: str
    #: The identifiers the body names, sorted once here so a pass that
    #: keeps this record builds Deputy's shard keys by lookups alone.
    referenced: tuple[str, ...]
    #: Hash of exactly what the call graph, the points-to collection and
    #: the IRQ-handler scan read from this function (see
    #: :func:`_structure_hash`).
    structure_hash: str
    #: ``Program.function_annotations`` of this function, merged once.
    annotations: AnnotationSet
    #: The function's type environment.  It reads globals and callee types
    #: through ``env.program`` lazily, so each pass that links this FuncDef
    #: again re-points it at that pass's Program.
    env: TypeEnv


def _function_reference(expr: ast.Expr) -> str | None:
    """The identifier ``expr`` names through any ``&`` and casts: the shape
    in which the points-to collection and the IRQ-handler scan look for a
    function stored as data or passed as an argument."""
    while True:
        if isinstance(expr, ast.Cast):
            expr = expr.operand
        elif isinstance(expr, ast.Unary) and expr.op == "&":
            expr = expr.operand
        else:
            return expr.name if isinstance(expr, ast.Ident) else None


def _structure_hash(sig_hash: str, sem_hash: str,
                    syntax: FunctionSyntax) -> str:
    """Everything :func:`build_direct_callgraph`,
    :meth:`FunctionPointerAnalysis.collect` and :func:`find_irq_handlers`
    read from one function: its signature (the points-to sets key address-
    taken functions by it), each call's callee or "indirect", each function
    reference passed as an argument or assigned, with the assigned field's
    name.  A function with an indirect call also folds in its ``sem_hash``:
    resolving the call types the pointer expression through the function's
    locals.  No location: the graph holds none, so an edit that only moves
    lines keeps the graph and everything derived from it."""
    parts = [sig_hash]
    indirect = False
    for call in syntax.calls:
        target = call.func
        if isinstance(target, ast.Ident):
            parts.append(f"call {target.name}")
        else:
            indirect = True
            parts.append("indirect")
        for arg in call.args:
            name = _function_reference(arg)
            if name is not None:
                parts.append(f"arg {name}")
    for assign in syntax.assigns:
        name = _function_reference(assign.value)
        if name is not None:
            target = assign.target
            field_name = target.name if isinstance(target, ast.Member) else ""
            parts.append(f"store {field_name}={name}")
    if indirect:
        parts.append(sem_hash)
    return _sha("\x00".join(parts))


@dataclass(frozen=True)
class _Merged:
    """One analysis's shards and merged report, for the next pass to
    start from."""

    salt: str
    #: Translation unit -> shard key, in unit order; a whole-program
    #: analysis keys its one shard under "".
    keys: dict[str, str]
    #: The shards' payloads, in the same order.
    payloads: list[dict]
    report: AnalysisReport


@dataclass(frozen=True)
class _PassState:
    """What the last completed pass derived, for the next pass to reuse.

    The artifacts and the reports are shared with the snapshot the
    service's readers may still hold, so a pass reads them and never
    mutates them.
    """

    #: Each corpus slot's unit as linked, in corpus order: a pass whose
    #: records hold the very same objects re-parsed nothing.
    units: tuple[ast.TranslationUnit | None, ...]
    #: Link errors by unit filename (:meth:`IncrementalAnalyzer._link`).
    link_errors: dict[str, ParseDiagnostic]
    globals_fp: str
    #: function name -> record, in ``program.functions`` order.
    records: dict[str, _FunctionRecord]
    artifacts: SharedArtifacts
    #: The summary context, re-created with each pass's program and facts.
    context: SummaryContext
    callgraph_fp: str
    #: Per condensation index: each SCC's local key
    #: (:func:`scc_fingerprints`) and its key completed with its callees'
    #: summary and signature hashes (the memo's keys).
    local_keys: list[str]
    scc_keys: list[str]
    #: function name -> hash of its summary (:func:`_summary_hash`).
    summary_hashes: dict[str, str]
    #: analysis name -> its shards and report, in run order.
    merged: dict[str, _Merged]
    summary_stats: dict


#: The artifacts a pool's workers inherit through ``fork()`` rather than
#: unpickle from the broadcast (the type environments point at the program).
_INHERITED = ("program", "graph", "pointsto", "type_envs")


class _Pool:
    """One pass's work-stealing pool, at ``jobs`` > 1, forked on first use
    after points-to: the workers inherit :attr:`base` and get the rest of
    the artifacts in one broadcast.  It runs per-unit work only (facts no
    memo holds, shards no key found); summaries and whole-program shards
    stay in the parent."""

    def __init__(self, jobs: int, registry: dict) -> None:
        self.jobs = jobs
        self.registry = registry
        #: The :data:`_INHERITED` artifacts, set before the first task.
        self.base: dict = {}
        self.executor = None
        #: In a worker: the artifacts assembled from the one broadcast.
        self._view = None

    def _handle(self, kind: str, payload, state: dict):
        """Run one task; called in a worker, on the state it forked with."""
        if kind == "consts":
            return solve_program_facts(self.base["program"], payload)
        name, functions = payload
        if self._view is None:
            self._view = SharedArtifacts(**self.base, **state["artifacts"])
        return self.registry[name].run_shard(self._view, functions)

    def run(self, tasks: list[Task], parent_tasks=(),
            artifacts: SharedArtifacts | None = None) -> dict:
        """Drain ``tasks`` while the parent runs its own, first
        broadcasting what the workers do not inherit of ``artifacts``."""
        if self.executor is None:
            # Frozen, the inherited heap is skipped by the workers' full
            # collections, which would copy every page of it.
            gc.freeze()
            try:
                self.executor = WorkStealingExecutor(self.jobs, self._handle)
            finally:
                gc.unfreeze()
        if artifacts is not None:
            self.executor.broadcast("artifacts", {
                name: value for name, value in vars(artifacts).items()
                if name not in _INHERITED})
        return self.executor.run(tasks, parent_tasks)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


def _perf_payload(phases: dict, executor) -> dict:
    """The report's timing and scheduler block (left out of identity
    comparisons, like ``cache_stats``)."""
    scheduler = {"mode": "serial"}
    if executor is not None:
        scheduler["mode"] = "work-steal"
        scheduler.update(executor.stats.to_dict())
        busy = {"consts": 0.0, "shard": 0.0}
        for task_id, seconds in executor.stats.task_busy.items():
            busy[task_id.split(":", 1)[0]] += seconds
        scheduler["busy_by_phase"] = {key: round(value, 4)
                                      for key, value in busy.items()}
    return {"phases": {key: round(value, 4) for key, value in phases.items()},
            "scheduler": scheduler}


def _complete_key(local_key: str, scc: tuple[str, ...], graph,
                  hashes: dict[str, str],
                  records: dict[str, _FunctionRecord]) -> str:
    """An SCC's key: its local key plus ``name:summary_hash:sig_hash`` of
    every out-of-component callee, sorted.  That is all its fixpoint reads
    about a callee: the summary, through ``lookup``, and the ``blocking``,
    ``blocking_if_wait`` and ``errcodes`` annotations merged from its
    header and its prototypes, through the summary context's seed sets.
    The prototypes are in the globals, which the local key covers."""
    members = set(scc)
    callees = sorted({callee for name in scc
                      for callee in graph.edges.get(name, ())
                      if callee not in members})
    parts = [local_key]
    for callee in callees:
        record = records.get(callee)
        parts.append(f"{callee}:{hashes[callee]}:"
                     f"{record.sig_hash if record is not None else ''}")
    return _sha("\x00".join(parts))


@dataclass
class IncrementalStats:
    """What one incremental pass reused and what it had to redo."""

    revision: int = 0
    full_reparse: bool = False
    reparse_reason: str = ""
    parsed_units: int = 0
    reused_units: int = 0
    parse_errors: int = 0
    consts_solved: int = 0
    consts_reused: int = 0
    #: Wall time spent solving the ``consts_solved`` functions' facts, in
    #: this process or on the pass's pool.
    consts_seconds: float = 0.0
    dirty_sccs: int = 0
    sccs_reused: int = 0
    dirty_functions: list[str] = field(default_factory=list)
    #: Functions whose summary differs from the last completed pass's (new
    #: ones included; every function on a cold pass): the witness for early
    #: cutoff, since only a moved summary re-keys its callers.
    summaries_changed: int = 0
    #: SCCs whose local or completed key was hashed this pass: a key
    #: carries over unless a member or a callee's summary or header moved.
    #: Every SCC on a cold pass and on one that moved the globals; 0 on one
    #: that only moved lines.
    scc_keys_hashed: int = 0
    shards_rerun: int = 0
    #: ``shards_rerun`` split by analysis: every analysis of the pass, 0
    #: allowed.
    shards_rerun_by_analysis: dict[str, int] = field(default_factory=dict)
    shards_reused: int = 0
    #: Shard keys hashed this pass: a key carries over unless its unit was
    #: re-parsed or what it reads moved.  0 on a pass that re-parsed nothing.
    shard_keys_computed: int = 0
    #: The units with a shard key hashed this pass, sorted.
    keyed_units: list[str] = field(default_factory=list)
    #: Analyses whose report was merged afresh rather than carried: those
    #: with a payload or an input of their merge that moved.
    analyses_merged: int = 0
    #: Artifacts served from the persistent store (cold-start warm hits).
    store_hits: int = 0
    #: Artifacts written through to the persistent store this pass.
    store_writes: int = 0
    #: Functions whose syntax record and hashes were rebuilt this pass
    #: (the functions of re-parsed units; 0 on a no-op pass).
    indexed_functions: int = 0
    #: The corpus-wide artifacts this pass recomputed rather than reused,
    #: sorted, from: annotations, blocking, callgraph, condensation,
    #: error_returning, irq_handlers, pointsto, summary_context.  Empty on
    #: a no-op pass; all of them on a cold one.
    rebuilt_artifacts: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["consts_seconds"] = round(self.consts_seconds, 4)
        payload["elapsed_seconds"] = round(self.elapsed_seconds, 4)
        return payload


class IncrementalAnalyzer:
    """Re-analyze an evolving corpus, redoing only invalidated work.

    ``analyze()`` runs one full pass and returns an :class:`EngineReport`
    byte-identical (up to timing/cache-stat fields) with what a fresh
    analyzer would produce over the same sources; ``last_stats`` records
    what the pass reused.  Passes are serialized — the service runs them
    behind a lock and publishes immutable snapshots for readers.  Summaries
    are always solved in this process: a dirty SCC's fixpoint costs less
    than shipping its callee summaries to a worker.  Only a pass asked for
    ``jobs`` > 1 forks a pool, for its per-unit facts and shards; the
    service never asks, since it would fork from a process that already
    runs its HTTP and watcher threads.
    """

    def __init__(self,
                 files: tuple[CorpusFile, ...] = KERNEL_FILES,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 deputy_options: DeputyOptions | None = None,
                 runtime_checks: RuntimeCheckSet | None = None,
                 store=None) -> None:
        self.files = tuple(files)
        self.defines = dict(defines or {})
        self.precision = precision
        #: Optional :class:`repro.service.store.PersistentStore`: the
        #: in-memory artifact stores spill through it, so a fresh analyzer
        #: over an unchanged corpus warm-starts with ~0 dirty SCCs.
        self.store = store
        self.registry = make_registry(deputy_options, runtime_checks)
        self._printer = PrettyPrinter()
        self._type_registry: TypeRegistry | None = None
        self._preprocessor: Preprocessor | None = None
        self._records: list[_UnitRecord] = []
        self._last_good: dict[str, CorpusFile] = {}
        #: function name -> ((body hash, globals fp, domains), its store
        #: key, facts | None)
        self._consts_store: dict[str, tuple[tuple[str, str, str], str, object]] = {}
        #: SCC key -> the component's solved {name: FunctionSummary} and
        #: {name: summary hash}
        self._scc_store: dict[str, tuple[dict, dict]] = {}
        #: shard key -> run_shard payload dict
        self._shard_store: dict[str, dict] = {}
        #: The last completed pass's derived state, its function records
        #: included (None before the first pass).
        self._last: _PassState | None = None
        self.revision = 0
        self.last_stats: IncrementalStats | None = None
        #: The last pass's shared artifacts (the service's /summaries source).
        self.artifacts: SharedArtifacts | None = None
        #: The last pass's parse and link diagnostics, in corpus order.
        self.diagnostics: tuple[ParseDiagnostic, ...] = ()

    # -- parsing -------------------------------------------------------------

    def _snapshot(self) -> _TableSnapshot:
        registry = self._type_registry
        printer = self._printer
        return _TableSnapshot(
            macros=dict(self._preprocessor.defines),
            typedefs=dict(registry.typedefs),
            typedef_renders={name: printer.type_name(ctype.underlying)
                             for name, ctype in registry.typedefs.items()},
            enum_constants=dict(registry.enum_constants),
            struct_keys=frozenset(registry.structs),
            enum_keys=frozenset(registry.enums),
            structs_complete=frozenset(
                key for key, s in registry.structs.items() if s.complete),
            enums_complete=frozenset(
                key for key, e in registry.enums.items() if e.complete),
            anon=registry._anon_counter)

    def _apply_tables(self, snap: _TableSnapshot) -> None:
        """Restore the pure parse-time tables to ``snap`` in place."""
        registry = self._type_registry
        self._preprocessor.defines.clear()
        self._preprocessor.defines.update(snap.macros)
        registry.typedefs.clear()
        registry.typedefs.update(snap.typedefs)
        registry.enum_constants.clear()
        registry.enum_constants.update(snap.enum_constants)
        registry._anon_counter = snap.anon

    @staticmethod
    def _reset_struct(struct) -> None:
        struct.fields = []
        struct.complete = False
        struct._size = 0
        struct._align = 1

    def _restore_parse_point(self, record: _UnitRecord) -> None:
        """Roll the shared state back to just before ``record``'s file.

        Struct/enum *objects* created by this file are kept under their keys
        (later units hold references into them; deleting and re-creating
        would split type identity) — only their completion is undone, so the
        re-parse can complete them again without tripping the redefinition
        check.
        """
        self._apply_tables(record.pre)
        registry = self._type_registry
        for key in record.effect.structs_completed:
            self._reset_struct(registry.structs[key])
        for tag in record.effect.enums_completed:
            enum = registry.enums[tag]
            enum.members.clear()
            enum.complete = False

    def _undo_attempt(self, attempt_pre: _TableSnapshot) -> None:
        """Scrub everything a *failed* parse attempt left in the registry.

        Unlike :meth:`_restore_parse_point`, keys created by the dead
        attempt are deleted outright — nothing live references them, and a
        half-defined struct must not shadow a name a later edit reuses.
        """
        self._apply_tables(attempt_pre)
        registry = self._type_registry
        for key in list(registry.structs):
            if key not in attempt_pre.struct_keys:
                del registry.structs[key]
        for key in attempt_pre.struct_keys:
            struct = registry.structs[key]
            if struct.complete and key not in attempt_pre.structs_complete:
                self._reset_struct(struct)
        for tag in list(registry.enums):
            if tag not in attempt_pre.enum_keys:
                del registry.enums[tag]
        for tag in attempt_pre.enum_keys:
            enum = registry.enums[tag]
            if enum.complete and tag not in attempt_pre.enums_complete:
                enum.members.clear()
                enum.complete = False

    def _parse_source(self, corpus_file: CorpusFile) -> ast.TranslationUnit:
        return _parse_file(corpus_file, self._type_registry, self._preprocessor)

    def _effect(self, pre: _TableSnapshot,
                post: _TableSnapshot) -> _UnitEffect:
        """The effect of the parse that went from ``pre`` to ``post``, the
        current state."""
        registry = self._type_registry
        printer = self._printer
        structs_completed = tuple(sorted(post.structs_complete - pre.structs_complete))
        enums_completed = tuple(sorted(post.enums_complete - pre.enums_complete))
        return _UnitEffect(
            macros=post.macros,
            typedef_renders=post.typedef_renders,
            enum_constants=post.enum_constants,
            anon=post.anon,
            structs_completed=structs_completed,
            enums_completed=enums_completed,
            struct_renders={key: printer.print_type_definition(registry.structs[key])
                            for key in structs_completed},
            enum_members={tag: dict(registry.enums[tag].members)
                          for tag in enums_completed})

    def _decl_render(self, unit: ast.TranslationUnit, pre: _TableSnapshot,
                     post: _TableSnapshot) -> str:
        """The unit's rendered top-level declarations, then every typedef
        its parse set: one declared in a function body enters the shared
        table too, and later units parse against it."""
        renders = [self._printer.print_top_level(decl) for decl in unit.decls
                   if not isinstance(decl, ast.FuncDef)]
        renders += [f"typedef {name} = {render}"
                    for name, render in post.typedef_renders.items()
                    if pre.typedef_renders.get(name) != render]
        return "\n".join(renders)

    def _layouts(self, effect: _UnitEffect) -> dict[str, tuple[list, int, int]]:
        """The fields, size and alignment of the structs ``effect``
        completed, as the registry holds them now."""
        structs = self._type_registry.structs
        return {key: (structs[key].fields, structs[key]._size,
                      structs[key]._align)
                for key in effect.structs_completed}

    def _complete_again(self, record: _UnitRecord) -> None:
        """Undo :meth:`_restore_parse_point`'s rollback of ``record``'s
        completions: its last good parse serves again."""
        registry = self._type_registry
        for key, (fields, size, align) in record.layouts.items():
            struct = registry.structs[key]
            struct.fields, struct._size, struct._align = fields, size, align
            struct.complete = True
        for tag, members in record.effect.enum_members.items():
            # An attempt that failed inside the enum's body left some of
            # its own members, and no completion for the scrub to undo.
            enum = registry.enums[tag]
            enum.members.clear()
            enum.members.update(members)
            enum.complete = True

    def _build_record(self, pre: _TableSnapshot, corpus_file: CorpusFile,
                      unit: ast.TranslationUnit) -> _UnitRecord:
        post = self._snapshot()
        effect = self._effect(pre, post)
        return _UnitRecord(
            filename=corpus_file.filename,
            corpus_file=corpus_file,
            seen=corpus_file,
            unit=unit,
            diagnostic=None,
            pre=pre,
            post=post,
            effect=effect,
            decl_render=self._decl_render(unit, pre, post),
            layouts=self._layouts(effect))

    def _reparse_unit(self, index: int, corpus_file: CorpusFile,
                      stats: IncrementalStats) -> bool:
        """Re-parse one edited file in place; False means "full-parse me".

        The attempt is only accepted when its effect on the shared tables
        (:class:`_UnitEffect`) equals the old parse's — otherwise downstream
        (not re-parsed) units could have parsed differently.  An accepted
        attempt therefore keeps the record's sequential ``pre``/``post``
        snapshots and effect verbatim: the guard just proved they still
        describe this file's boundaries exactly.  Its top-level
        declarations may have moved; the record takes their new render.  A
        failed attempt is scrubbed, and the unit keeps serving its last good
        parse, with the types that parse completed, without parsing it
        again.
        """
        record = self._records[index]
        if record.unit is None:
            return False
        self._restore_parse_point(record)
        attempt_pre = self._snapshot()
        try:
            unit = self._parse_source(corpus_file)
            stats.parsed_units += 1
        except MiniCError as error:
            # Keep serving the last good parse: scrub the failed attempt,
            # then complete again the types the rollback undid.  The tables
            # need nothing: each rollback starts from a snapshot, and the
            # pass ends on the last unit's.
            self._undo_attempt(attempt_pre)
            self._complete_again(record)
            self._records[index] = replace(
                record, seen=corpus_file,
                diagnostic=ParseDiagnostic.of(corpus_file.filename, error))
            return True
        if self._effect(attempt_pre, self._snapshot()) != record.effect:
            return False
        self._records[index] = replace(
            record, corpus_file=corpus_file, seen=corpus_file,
            unit=unit, diagnostic=None,
            decl_render=self._decl_render(unit, record.pre, record.post),
            layouts=self._layouts(record.effect))
        self._last_good[corpus_file.filename] = corpus_file
        return True

    def _full_parse(self, files: tuple[CorpusFile, ...],
                    stats: IncrementalStats, reason: str) -> None:
        stats.full_reparse = True
        stats.reparse_reason = reason
        self._type_registry = TypeRegistry()
        self._preprocessor = Preprocessor(dict(self.defines))
        self._records = []
        for corpus_file in files:
            pre = self._snapshot()
            try:
                unit = self._parse_source(corpus_file)
                stats.parsed_units += 1
            except MiniCError as error:
                diagnostic = ParseDiagnostic.of(corpus_file.filename, error)
                self._undo_attempt(pre)
                record = self._parse_last_good(pre, corpus_file, stats)
                if record is None:
                    record = _UnitRecord(
                        filename=corpus_file.filename,
                        corpus_file=corpus_file, seen=corpus_file,
                        unit=None, diagnostic=diagnostic,
                        pre=pre, post=self._snapshot())
                else:
                    record.seen = corpus_file
                    record.diagnostic = diagnostic
                self._records.append(record)
                continue
            self._records.append(self._build_record(pre, corpus_file, unit))
            self._last_good[corpus_file.filename] = corpus_file

    def _parse_last_good(self, pre: _TableSnapshot, corpus_file: CorpusFile,
                         stats: IncrementalStats) -> _UnitRecord | None:
        """During a full parse, substitute a broken file's last good source."""
        good = self._last_good.get(corpus_file.filename)
        if good is None or good.source == corpus_file.source:
            return None
        try:
            unit = self._parse_source(good)
            stats.parsed_units += 1
        except MiniCError:
            self._undo_attempt(pre)
            return None
        return self._build_record(pre, good, unit)

    def _reconcile_parse(self, files: tuple[CorpusFile, ...],
                         stats: IncrementalStats) -> None:
        if self._type_registry is None:
            self._full_parse(files, stats, reason="initial")
            return
        if [f.filename for f in files] != [r.filename for r in self._records]:
            self._full_parse(files, stats, reason="file-set-changed")
            return
        # Dataclass equality compares the texts, and an unedited file's
        # text is the very string the last pass saw.
        changed = []
        for index, corpus_file in enumerate(files):
            record = self._records[index]
            if corpus_file == record.seen:
                continue
            if record.unit is not None and corpus_file == record.corpus_file:
                # A fix back to the last good text, whose parse the record
                # still serves: nothing to roll back or parse.
                self._records[index] = replace(record, seen=corpus_file,
                                               diagnostic=None)
            else:
                changed.append(index)
        stats.reused_units = len(files) - len(changed)
        if not changed:
            return
        for index in changed:
            if not self._reparse_unit(index, files[index], stats):
                self._full_parse(files, stats, reason="in-place-guard")
                return
        # Re-apply the suffix files' (unreplayed) table effects so the next
        # pass's rollbacks start from the canonical end-of-corpus state.
        self._apply_tables(self._records[-1].post)

    def _link(self) -> tuple[Program, dict[str, ParseDiagnostic]]:
        """Link the current units, isolating link-time errors per unit
        exactly like :func:`repro.kernel.build.parse_corpus_tolerant`;
        returns the program and the link errors by unit filename."""
        program, errors = link_tolerant(
            ((record.unit, None) for record in self._records),
            self._type_registry)
        program._corpus_preprocessor = self._preprocessor  # type: ignore[attr-defined]
        return program, {error.filename: error for error in errors}

    def _diagnostics(self, link_errors: dict[str, ParseDiagnostic],
                     ) -> tuple[ParseDiagnostic, ...]:
        """Each unit's parse diagnostic, then its link error, in corpus
        order: what :func:`link_tolerant` reports for the same pairs."""
        diagnostics = []
        for record in self._records:
            if record.diagnostic is not None:
                diagnostics.append(record.diagnostic)
            error = link_errors.get(record.filename)
            if error is not None:
                diagnostics.append(error)
        return tuple(diagnostics)

    # -- fingerprints ---------------------------------------------------------

    def _fingerprint(self, program: Program, stats: IncrementalStats):
        """Per-function records plus the corpus-global fingerprint.

        Each linked function gets a :class:`_FunctionRecord`.  Its
        ``sem_hash`` is *semantic*: the macro-expanded, pretty-printed body
        (signature and annotations included) — what summaries and constant
        facts can observe.  Its ``loc_hash`` additionally folds every
        node's source position, because checker findings carry line
        numbers: an edit that only shifts a function down a line must
        invalidate its shard payloads without re-solving its summaries.
        Its ``sig_hash`` covers the header alone, which is all another
        unit's Deputy shard reads about it; its ``structure_hash`` covers
        what the call graph, points-to and IRQ scans read.

        Records carry over from the last pass for every FuncDef object
        linked again (see :class:`_FunctionRecord`), so only the functions
        of re-parsed units are rendered and walked;
        ``stats.indexed_functions`` counts them.  A carried record's
        :class:`TypeEnv` is re-pointed at this pass's program, and its
        merged annotations are adopted by it (``Program.adopt_annotations``)
        unless the globals moved — a prototype added, edited or gone with
        a unit that dropped out of the link, say — in which case they are
        merged again.

        The global part folds every linked unit's ``decl_render``, in link
        order, which determines the prototypes and globals linking sees.

        The type environments are returned for reuse — the points-to pass
        and the deputy checker consume the same entries.
        """
        printer = self._printer
        renders = {id(record.unit): record.decl_render
                   for record in self._records if record.unit is not None}
        global_parts = [source_digest(), self.precision.name,
                        json.dumps(self.defines, sort_keys=True)]
        for unit in program.units:
            global_parts.append(f"@{unit.filename}")
            global_parts.append(renders[id(unit)])
        globals_fp = _sha("\x00".join(global_parts))
        last = self._last
        same_globals = last is not None and last.globals_fp == globals_fp
        carried = last.records if last is not None else {}
        records: dict[str, _FunctionRecord] = {}
        for name, decl in program.functions.items():
            record = carried.get(name)
            if record is not None and record.func is decl:
                program.adopt_syntax(decl, record.syntax)
                record.env.program = program
                if not same_globals:
                    record = replace(
                        record, annotations=program.function_annotations(name))
                program.adopt_annotations(name, record.annotations)
            else:
                env = TypeEnv(program, decl)
                sem = _sha(printer.print_funcdef(decl))
                digest = hashlib.sha256(sem.encode())
                for node in walk(decl):
                    location = getattr(node, "location", None)
                    if location is not None:
                        digest.update(
                            f"{location.line}:{location.column};".encode())
                syntax = program.syntax_of(decl)
                sig = _sha(printer.print_signature(decl))
                record = _FunctionRecord(
                    func=decl, syntax=syntax,
                    sem_hash=sem, loc_hash=digest.hexdigest()[:32],
                    sig_hash=sig, referenced=tuple(sorted(syntax.names)),
                    structure_hash=_structure_hash(sig, sem, syntax),
                    annotations=program.function_annotations(name), env=env)
                program.adopt_annotations(name, record.annotations)
                stats.indexed_functions += 1
            records[name] = record
        type_envs = {name: record.env for name, record in records.items()}
        return records, globals_fp, type_envs

    # -- analysis -------------------------------------------------------------

    def _solve_consts(self, program: Program, globals_fp: str,
                      records: dict[str, _FunctionRecord],
                      unit_functions: dict[str, list[str]],
                      stats: IncrementalStats, pool: _Pool | None):
        """Constant facts per function, and the memo for the next pass.

        Each function is looked up by key (body hash, globals fingerprint,
        domains) in memory, then in the persistent store (one batched read
        for all the memory misses), else solved: here, or with a ``pool``
        as one task per unit with functions to solve, merged back in
        program order.  The memo keeps each entry's store key, so a memory
        hit costs one tuple comparison.
        """
        memo = self._consts_store
        domains = domain_fingerprint(DEFAULT_DOMAINS)
        # In ``program.functions`` order; a memory miss holds its place
        # until the store has answered.
        store: dict[str, tuple[tuple[str, str, str], str, object] | None] = {}
        missing: dict[str, tuple[tuple[str, str, str], str]] = {}
        live: list[str] = []
        for name in program.functions:
            key = (records[name].sem_hash, globals_fp, domains)
            entry = memo.get(name)
            if entry is not None and entry[0] == key:
                stats.consts_reused += 1
                live.append(entry[1])
            else:
                missing[name] = (key, _sha("\x00".join(key)))
            store[name] = entry
        # Values are wrapped in a 1-tuple on disk: ``None`` is a legitimate
        # artifact (branchless function), so a bare miss must be
        # distinguishable from a stored ``None``.
        found = (self.store.get_many(
            "consts", [disk_key for _, disk_key in missing.values()])
            if self.store is not None and missing else {})
        unsolved = [name for name, (_, disk_key) in missing.items()
                    if disk_key not in found]
        started = time.perf_counter()
        if pool is None or not unsolved:
            solved = solve_program_facts(program, unsolved)
        else:
            wanted = set(unsolved)
            tasks = [Task(id=f"consts:{filename}", kind="consts", payload=subset)
                     for filename, functions in unit_functions.items()
                     if (subset := [name for name in functions if name in wanted])]
            solved = {}
            for facts in pool.run(tasks).values():
                solved.update(facts)
        stats.consts_seconds = time.perf_counter() - started
        disk_writes: list[tuple[str, tuple]] = []
        for name, (key, disk_key) in missing.items():
            wrapped = found.get(disk_key)
            if wrapped is not None:
                value = wrapped[0]
                stats.consts_reused += 1
                stats.store_hits += 1
            else:
                value = solved[name]
                stats.consts_solved += 1
                disk_writes.append((disk_key, (value,)))
            store[name] = (key, disk_key, value)
        if self.store is not None:
            self.store.put_many("consts", disk_writes)
            self.store.touch("consts", live)
            stats.store_writes += len(disk_writes)
        consts = {name: entry[2] for name, entry in store.items()}
        return consts, store

    def _rekey(self, records: dict[str, _FunctionRecord], graph,
               condensation, globals_fp: str):
        """Local SCC keys carried from the last pass, over the same globals.

        Each component is matched with the last pass's component of the
        same member tuple (over the last pass's condensation, every one
        is).  A matched component keeps its local key unless a member's
        body, out-edges or resolved indirect callees moved; an unmatched
        one, or one where they moved, is keyed afresh.  Returns the local
        keys, the last pass's completed key of each matched component (""
        for the others), and the components whose key the wave loop must
        complete afresh: those keyed here, and the callers of a function
        whose header moved.  Every other component keeps its completed key
        unless a callee's summary moves during the loop.
        """
        last = self._last
        old = last.records
        edited = [name for name, record in records.items()
                  if name not in old or old[name].sem_hash != record.sem_hash]
        edited += [name for name in old if name not in records]
        rekeyed = set(edited)
        old_graph = last.artifacts.graph
        if graph is not old_graph:
            rekeyed.update(
                name for name, callees in graph.edges.items()
                if callees != old_graph.edges.get(name)
                or graph.indirect.get(name) != old_graph.indirect.get(name))
        old_condensation = last.artifacts.condensation
        if condensation is old_condensation:
            local_keys, carried = list(last.local_keys), last.scc_keys
            stale: set[int] = set()
        else:
            old_index = {scc: index for index, scc
                         in enumerate(old_condensation.sccs)}
            local_keys, carried, stale = [], [], set()
            for index, scc in enumerate(condensation.sccs):
                before = old_index.get(scc)
                if before is None:
                    stale.add(index)
                    local_keys.append("")
                    carried.append("")
                else:
                    local_keys.append(last.local_keys[before])
                    carried.append(last.scc_keys[before])
        scc_of = condensation.scc_of
        stale.update(scc_of[name] for name in rekeyed if name in scc_of)
        for index in stale:
            scc = condensation.sccs[index]
            local_keys[index] = scc_local_key(
                scc, graph, {name: records[name].sem_hash
                             for name in scc if name in records}, globals_fp)
        for name in edited:
            record, previous = records.get(name), old.get(name)
            if (record.sig_hash if record is not None else None) != (
                    previous.sig_hash if previous is not None else None):
                stale.update(scc_of[caller]
                             for caller in graph.reverse_edges.get(name, ()))
        return local_keys, carried, stale

    def _solve_summaries(self, graph, condensation, context: SummaryContext,
                         local_keys: list[str], carried: list[str],
                         stale: set[int] | None,
                         records: dict[str, _FunctionRecord],
                         stats: IncrementalStats):
        """Bottom-up solve reusing clean components from the SCC stores.

        Mirrors :func:`repro.dataflow.interproc.solve_summaries` wave
        order exactly, over this pass's condensation (dict iteration order
        is observable downstream).  Each component's key is its local key
        completed with its callees' summary and signature hashes
        (:func:`_complete_key`), which the earlier waves have just
        produced.  With ``stale`` (from :meth:`_rekey`), a component
        outside it keeps its ``carried`` key unhashed; a component whose
        summary hash moved adds its callers to it; and an empty one over
        the last pass's condensation returns the last pass's solve whole.
        Without ``stale`` (a cold pass, or moved globals), every key is
        completed.  ``stats.scc_keys_hashed`` counts the completions: a
        component whose local key was hashed is completed too.

        Each component comes from memory, else from the persistent store
        (one batched read per wave, for the wave's memory misses), else
        from :func:`solve_scc`: a dirty component starts at lattice
        bottom with its callees' summaries supplied, so the result is the
        batch least fixpoint, and only its summaries are hashed.  Returns
        the summaries, their hashes, the keys, the memo for the next pass,
        and the functions whose summary hash differs from the last completed
        pass's.
        """
        last = self._last
        if (stale is not None and not stale
                and condensation is last.artifacts.condensation):
            # No component's key can move, so the last pass's solve stands.
            stats.sccs_reused = len(condensation.sccs)
            if self.store is not None:
                self.store.touch("scc", last.scc_keys)
            return (last.artifacts.summaries, last.summary_hashes,
                    last.scc_keys, self._scc_store, [])
        last_hashes = last.summary_hashes if last is not None else {}
        memo = self._scc_store
        scc_of = condensation.scc_of
        solved: dict = {}
        hashes: dict[str, str] = {}
        keys: list[str] = [""] * len(condensation.sccs)
        store: dict[str, tuple[dict, dict]] = {}
        dirty: list[str] = []
        moved: list[str] = []
        disk_writes: list[tuple[str, tuple[dict, dict]]] = []
        live: list[str] = []
        for wave in condensation.waves:
            # A wave's components read only earlier waves' summaries, so
            # the whole wave is keyed before the store is asked.
            for index in wave:
                if stale is None or index in stale:
                    keys[index] = _complete_key(
                        local_keys[index], condensation.sccs[index], graph,
                        hashes, records)
                    stats.scc_keys_hashed += 1
                else:
                    keys[index] = carried[index]
            misses = [keys[index] for index in wave if keys[index] not in memo]
            found = (self.store.get_many("scc", misses)
                     if self.store is not None and misses else {})
            for index in wave:
                scc = condensation.sccs[index]
                key = keys[index]
                entry = memo.get(key)
                if entry is not None:
                    stats.sccs_reused += 1
                    live.append(key)
                else:
                    entry = found.get(key)
                    if entry is not None:
                        stats.sccs_reused += 1
                        stats.store_hits += 1
                    else:
                        component = solve_scc(scc, context, graph, solved)
                        entry = (component,
                                 {name: _summary_hash(summary)
                                  for name, summary in component.items()})
                        dirty.extend(scc)
                        disk_writes.append((key, entry))
                    for name, digest in entry[1].items():
                        if last_hashes.get(name) != digest:
                            moved.append(name)
                            if stale is not None:
                                stale.update(
                                    scc_of[caller] for caller
                                    in graph.reverse_edges.get(name, ()))
                store[key] = entry
                solved.update(entry[0])
                hashes.update(entry[1])
        stats.dirty_sccs = len(condensation.sccs) - stats.sccs_reused
        stats.dirty_functions = sorted(dirty)
        stats.summaries_changed = len(moved)
        if self.store is not None:
            self.store.put_many("scc", disk_writes)
            self.store.touch("scc", live)
            stats.store_writes += len(disk_writes)
        return solved, hashes, keys, store, moved

    @staticmethod
    def _shard_key(name: str, filename: str, functions: list[str],
                   records: dict[str, _FunctionRecord], outside,
                   globals_fp: str, salt: str) -> str:
        """A per-unit shard's key: the unit's location hashes plus, for each
        of its functions, what the analysis reads outside the unit
        (``outside(function)``: that content, as text)."""
        parts = [name, filename, globals_fp, salt]
        for function in functions:
            parts.append(f"{function}={records[function].loc_hash}")
            parts.append(outside(function))
        return _sha("\x00".join(parts))

    @staticmethod
    def _outside_reads(reads: ShardReads, records: dict[str, _FunctionRecord],
                       condensation, scc_keys: list[str]):
        """``outside`` for :meth:`_shard_key`: what a function's shard reads
        about functions outside its unit, as declared by ``reads``."""
        if reads is ShardReads.CALLEE_SCC_KEYS:
            scc_of = condensation.scc_of

            def outside(function):
                index = scc_of.get(function)
                return scc_keys[index] if index is not None else ""

            return outside
        if reads is ShardReads.REFERENCED_SIGNATURES:
            # ``name:sig_hash`` of every identifier the body names, locals
            # included: the call-contract check and the type of a call
            # resolve a direct callee through ``Program.function_type``
            # without looking at locals.  A name with no definition folds
            # in bare, so a later definition changes the key.
            def outside(function):
                return "\x00".join([
                    f"{ref}:{records[ref].sig_hash}" if ref in records else ref
                    for ref in records[function].referenced])

            return outside
        return lambda function: ""

    def _moved_reads(self, reads: ShardReads,
                     records: dict[str, _FunctionRecord], condensation,
                     scc_keys: list[str]) -> set[str]:
        """The functions whose ``outside`` (:meth:`_outside_reads`) may
        differ from the last pass's, over the same globals."""
        last = self._last
        if reads is ShardReads.CALLEE_SCC_KEYS:
            if scc_keys is last.scc_keys:
                return set()
            if condensation is last.artifacts.condensation:
                return {name for index, key in enumerate(scc_keys)
                        if key != last.scc_keys[index]
                        for name in condensation.sccs[index]}
            old_of = last.artifacts.condensation.scc_of
            return {name for name, index in condensation.scc_of.items()
                    if name not in old_of
                    or scc_keys[index] != last.scc_keys[old_of[name]]}
        if reads is ShardReads.REFERENCED_SIGNATURES:
            # A signature moves with its record, so only new records and
            # dropped names are compared.
            old = last.records
            moved = {name for name, record in records.items()
                     if old.get(name) is not record and (
                         name not in old
                         or old[name].sig_hash != record.sig_hash)}
            moved.update(name for name in old if name not in records)
            if not moved:
                return set()
            return {name for name, record in records.items()
                    if not moved.isdisjoint(record.referenced)}
        return set()

    def _run_shards(self, names: list[str], state: _PassState,
                    stats: IncrementalStats, pool: _Pool | None):
        """Run or reuse the checker shards of ``names`` over ``state``'s
        artifacts, and merge each analysis.

        Each shard key starts from the last pass's: a unit's is hashed
        again only when the unit was re-parsed (a function record of it is
        new), the globals fingerprint or the analysis's salt moved, or the
        declared :class:`ShardReads` of one of its functions moved.  The
        whole-program shard (stackcheck's) is keyed on the call-graph
        fingerprint and every summary hash, and hashed again only when one
        of them moved.  The shards no key found then run (:meth:`_shards`),
        and an analysis is merged again only when one of its payloads
        differs from the last pass's or an artifact its ``merge`` reads
        (``merge_reads``) is not the last pass's object.  Returns the
        payload memo and the merged state for the next pass.
        """
        artifacts, records = state.artifacts, state.records
        globals_fp, scc_keys = state.globals_fp, state.scc_keys
        summary_hashes = state.summary_hashes
        last = self._last
        if last is not None and last.globals_fp != globals_fp:
            last = None
        unit_functions = artifacts.unit_functions
        reparsed: set[str] = set()
        if last is not None:
            old = last.records
            reparsed = {filename for filename, functions
                        in unit_functions.items()
                        if any(old.get(name) is not records[name]
                               for name in functions)}
        memo = self._shard_store
        keyed: set[str] = set()
        # Per analysis: its adapter, salt, carried state, keys and store hits.
        plans = []
        for name in names:
            analysis = self.registry[name]
            reads = analysis.shard_reads
            salt = analysis.shard_salt(artifacts)
            carried = last.merged.get(name) if last is not None else None
            if carried is not None and carried.salt != salt:
                carried = None
            keys: dict[str, str] = {}
            if analysis.per_unit:
                outside = self._outside_reads(reads, records,
                                              artifacts.condensation, scc_keys)
                moved = (self._moved_reads(reads, records,
                                           artifacts.condensation, scc_keys)
                         if carried is not None else set())
                for filename, functions in unit_functions.items():
                    if not functions:
                        continue
                    key = (carried.keys.get(filename) if carried is not None
                           else None)
                    if (key is None or filename in reparsed
                            or not moved.isdisjoint(functions)):
                        key = self._shard_key(name, filename, functions,
                                              records, outside, globals_fp,
                                              salt)
                        stats.shard_keys_computed += 1
                        keyed.add(filename)
                    keys[filename] = key
            elif reads is ShardReads.CALL_GRAPH_AND_SUMMARIES:
                key = carried.keys[""] if carried is not None else None
                if key is None or state.callgraph_fp != last.callgraph_fp or (
                        summary_hashes is not last.summary_hashes
                        and summary_hashes != last.summary_hashes):
                    key = _sha("\x00".join(
                        [name, globals_fp, salt, state.callgraph_fp,
                         *sorted(f"{function}:{digest}" for function, digest
                                 in summary_hashes.items())]))
                    stats.shard_keys_computed += 1
                keys[""] = key
            else:
                raise ValueError(f"{name}: a whole-program shard must read "
                                 "the call graph and the summaries alone")
            misses = [key for key in keys.values() if key not in memo]
            found = (self.store.get_many("shard", misses)
                     if self.store is not None and misses else {})
            plans.append((name, analysis, salt, carried, keys, found))
        stats.keyed_units = sorted(keyed)
        ran = self._shards([(name, filename, key)
                            for name, _, _, _, keys, found in plans
                            for filename, key in keys.items()
                            if key not in memo and key not in found],
                           artifacts, pool)

        store: dict[str, dict] = {}
        merged: dict[str, _Merged] = {}
        disk_writes: list[tuple[str, tuple]] = []
        disk_touches: list[str] = []
        for name, analysis, salt, carried, keys, found in plans:
            stats.shards_rerun_by_analysis[name] = 0
            payloads = []
            for key in keys.values():
                payload = memo.get(key)
                if payload is not None:
                    stats.shards_reused += 1
                    disk_touches.append(key)
                elif key in found:
                    payload = found[key][0]
                    stats.shards_reused += 1
                    stats.store_hits += 1
                else:
                    payload = ran[key]
                    stats.shards_rerun += 1
                    stats.shards_rerun_by_analysis[name] += 1
                    disk_writes.append((key, (payload,)))
                store[key] = payload
                payloads.append(payload)
            if (carried is not None and len(payloads) == len(carried.payloads)
                    and all(payload is before or payload == before
                            for payload, before
                            in zip(payloads, carried.payloads))
                    and all(getattr(artifacts, field_name)
                            is getattr(last.artifacts, field_name)
                            for field_name in analysis.merge_reads)):
                report = carried.report
            else:
                report = analysis.merge(artifacts, payloads)
                stats.analyses_merged += 1
            merged[name] = _Merged(salt=salt, keys=keys, payloads=payloads,
                                   report=report)
        if self.store is not None:
            self.store.put_many("shard", disk_writes)
            self.store.touch("shard", disk_touches)
            stats.store_writes += len(disk_writes)
        return store, merged

    def _shards(self, todo: list[tuple[str, str, str]],
                artifacts: SharedArtifacts, pool: _Pool | None) -> dict:
        """Run the (analysis, unit, key) shards of ``todo``; returns the
        payloads by key.  Per-unit shards run on the ``pool`` if there is
        one, while the parent runs the whole-program ones."""
        unit_functions = artifacts.unit_functions
        if pool is None or all(not filename for _, filename, _ in todo):
            return {key: self.registry[name].run_shard(
                        artifacts, unit_functions[filename] if filename
                        else None)
                    for name, filename, key in todo}
        ids = {f"shard:{name}:{filename}": key for name, filename, key in todo}
        tasks = [Task(id=f"shard:{name}:{filename}", kind="shard",
                      payload=(name, unit_functions[filename]))
                 for name, filename, _ in todo if filename]
        parent = [(f"shard:{name}:",
                   lambda name=name: self.registry[name].run_shard(artifacts,
                                                                   None))
                  for name, filename, _ in todo if not filename]
        results = pool.run(tasks, parent, artifacts)
        return {ids[task_id]: payload for task_id, payload in results.items()}

    def analyze(self, files: tuple[CorpusFile, ...] | None = None,
                analyses=None, jobs: int = 1) -> EngineReport:
        """Run one incremental pass; returns the merged engine report.

        ``analyses`` selects the registered analyses to run, in that order
        (all of them by default), and ``jobs`` sizes the pass's pool
        (:func:`~repro.engine.scheduler.worker_count`; 1, the default,
        forks nothing).

        A pass that re-parsed no unit (a no-op, a break whose unit keeps
        serving its last good parse, or the fix back to that text) carries
        the last pass's link, records and artifacts whole, and its reports
        too when it runs the same analyses; it builds only its diagnostics
        and stats, and the shards of analyses the last pass did not run.
        Otherwise every corpus-wide artifact is the last pass's when the
        inputs it reads did not change, and is rebuilt otherwise; a cold
        pass is the case where every comparison misses.  What the analysis
        carries to the next pass — function records, memos, the last
        pass's artifacts — is replaced only when the pass completes, so
        after a pass that raises the next one compares against the last
        completed pass.  (The parse state and the carried type
        environments' ``program`` move during the pass; the next pass
        re-links and re-points them.)
        """
        start = time.perf_counter()
        self.revision += 1
        stats = IncrementalStats(revision=self.revision)
        files = tuple(files) if files is not None else self.files
        names = (list(analyses) if analyses is not None
                 else [name for name in ANALYSIS_ORDER if name in self.registry])
        workers = worker_count(jobs)
        pool = _Pool(workers, self.registry) if workers > 1 else None
        try:
            self._reconcile_parse(files, stats)
            self.files = files
            parsed = time.perf_counter()
            last = self._last
            units = tuple(record.unit for record in self._records)
            memos = None
            if last is not None and len(units) == len(last.units) and all(
                    unit is linked for unit, linked in zip(units, last.units)):
                state = last
                stats.consts_reused = len(last.records)
                stats.sccs_reused = len(last.scc_keys)
                summary = {**last.summary_stats, "cache_hit": True,
                           "consts_cache_hit": True}
                if pool is not None:
                    pool.base = {name: getattr(last.artifacts, name)
                                 for name in _INHERITED}
            else:
                state, memos = self._derive(units, stats, pool)
                summary = state.summary_stats
            derived = time.perf_counter()
            if state is last and list(last.merged) == names:
                shard_store, merged = self._shard_store, last.merged
                stats.shards_reused = sum(len(carried.keys)
                                          for carried in merged.values())
                stats.shards_rerun_by_analysis = dict.fromkeys(merged, 0)
            else:
                shard_store, merged = self._run_shards(names, state, stats,
                                                       pool)
        finally:
            if pool is not None:
                pool.close()
        checked = time.perf_counter()

        # The pass completed: commit what the next one reuses.
        if memos is not None:
            self._consts_store, self._scc_store = memos
        self._shard_store = shard_store
        self._last = replace(state, merged=merged)
        self.artifacts = state.artifacts
        self.diagnostics = self._diagnostics(state.link_errors)
        stats.parse_errors = len(self.diagnostics)
        executor = pool.executor if pool is not None else None
        parallel = executor is not None and executor.parallel
        report = EngineReport(
            analyses={name: carried.report for name, carried in merged.items()},
            corpus_files=[f.filename for f in files],
            precision=self.precision.name.lower(),
            jobs=workers if parallel else 1, parallel=parallel,
            summary_stats=summary,
            cache_stats={
                "hits": (stats.consts_reused + stats.sccs_reused
                         + stats.shards_reused),
                "misses": (stats.consts_solved + stats.dirty_sccs
                           + stats.shards_rerun),
                "disk_hits": stats.store_hits,
                "evictions": (self.store.evictions if self.store is not None
                              else 0),
                "const_solve_ms": round(stats.consts_seconds * 1000, 3),
            },
            perf=_perf_payload({"parse": parsed - start,
                                "artifacts": derived - parsed,
                                "checkers": checked - derived}, executor))
        if self.diagnostics:
            report.analyses["diagnostics"] = diagnostics_report(
                self.diagnostics)
        stats.elapsed_seconds = time.perf_counter() - start
        report.elapsed_seconds = stats.elapsed_seconds
        self.last_stats = stats
        return report

    def _derive(self, units: tuple[ast.TranslationUnit | None, ...],
                stats: IncrementalStats, pool: _Pool | None):
        """A pass over re-parsed units: link, then rebuild what moved.

        Returns the pass's state, with no analysis merged yet, and the new
        constant-facts and SCC memos.
        """
        program, link_errors = self._link()
        records, globals_fp, type_envs = self._fingerprint(program, stats)
        unit_functions = unit_function_map(program)
        last = self._last
        old = last.records if last is not None else {}
        # The same functions in the same order over the same globals; then
        # whether each record's hashes equal its predecessor's.
        same_frame = (last is not None and last.globals_fp == globals_fp
                      and list(records) == list(old))
        structure_same = same_frame and all(
            record.structure_hash == old[name].structure_hash
            for name, record in records.items())
        rebuilt: list[str] = []

        # What the call graph, points-to and IRQ scans read is each
        # function's structure hash; the annotations, its signature hash.
        if structure_same:
            graph = last.artifacts.graph
            pointsto = last.artifacts.pointsto
            irq_handlers = last.artifacts.irq_handlers
            annotations = last.artifacts.annotations
        else:
            # A fresh graph: resolve() adds the indirect edges to it.
            graph, indirect_calls = build_direct_callgraph(program)
            pointsto_pass = FunctionPointerAnalysis(program, self.precision)
            pointsto_pass.collect()
            pointsto = pointsto_pass.resolve(graph, indirect_calls,
                                             envs=type_envs)
            irq_handlers = find_irq_handlers(program)
            annotations = {name: program.function_annotations(name)
                           for name in program.all_function_names()}
            rebuilt += ["callgraph", "pointsto", "irq_handlers", "annotations"]
        if pool is not None:
            pool.base = {"program": program, "graph": graph,
                         "pointsto": pointsto, "type_envs": type_envs}

        consts, consts_store = self._solve_consts(
            program, globals_fp, records, unit_functions, stats, pool)
        # The condensation and the graph fingerprint read the edge set
        # alone, so they also survive a rebuild that kept every edge.
        if last is not None and (structure_same
                                 or graph.edges == last.artifacts.graph.edges):
            condensation = last.artifacts.condensation
            callgraph_fp = last.callgraph_fp
        else:
            condensation = condense_callgraph(graph)
            callgraph_fp = callgraph_fingerprint(graph)
            rebuilt.append("condensation")
        # The context's seed sets and resolved indirect callees read the
        # annotations and the graph; its program and facts are this pass's.
        if structure_same:
            context = replace(last.context, program=program,
                              consts=dict(consts))
        else:
            context = build_context(program, graph, consts=consts)
            rebuilt.append("summary_context")
        # A local SCC key reads the globals and its members' bodies,
        # out-edges and indirect callees, so over the last pass's globals
        # only the components where those moved, or whose members did, are
        # keyed again.
        if last is not None and last.globals_fp == globals_fp:
            local_keys, carried, stale = self._rekey(records, graph,
                                                     condensation, globals_fp)
        else:
            local_keys = scc_fingerprints(
                condensation, graph,
                {name: record.sem_hash for name, record in records.items()},
                globals_fp)
            carried, stale = [], None
        summaries, summary_hashes, scc_keys, scc_store, moved = (
            self._solve_summaries(graph, condensation, context, local_keys,
                                  carried, stale, records, stats))
        if structure_same and not moved:
            blocking = last.artifacts.blocking
            error_returning = last.artifacts.error_returning
        else:
            # Fresh objects only: derive_blocking fills in the info it builds.
            blocking = derive_blocking(program, graph, summaries)
            error_returning = find_error_returning_functions(program,
                                                             summaries)
            rebuilt += ["blocking", "error_returning"]
        stats.rebuilt_artifacts = sorted(rebuilt)

        artifacts = SharedArtifacts(
            program=program,
            precision=self.precision,
            graph=graph,
            pointsto=pointsto,
            consts=consts,
            condensation=condensation,
            summaries=summaries,
            blocking=blocking,
            irq_handlers=irq_handlers,
            error_returning=error_returning,
            annotations=annotations,
            type_envs=type_envs,
            unit_functions=unit_functions,
        )
        state = _PassState(
            units=units, link_errors=link_errors,
            globals_fp=globals_fp, records=records, artifacts=artifacts,
            context=context, callgraph_fp=callgraph_fp,
            local_keys=local_keys, scc_keys=scc_keys,
            summary_hashes=summary_hashes, merged={},
            summary_stats=summary_stats(
                artifacts, summary_cache_hit=stats.dirty_sccs == 0,
                consts_cache_hit=stats.consts_solved == 0))
        return state, (consts_store, scc_store)
