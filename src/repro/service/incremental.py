"""Incremental re-analysis: per-TU parse reuse and per-SCC summary caching.

The batch engine (:class:`repro.engine.AnalysisEngine`) keys whole artifacts
on whole-corpus content: one edited byte re-parses every translation unit and
re-solves every summary.  The :class:`IncrementalAnalyzer` re-keys that work
at the granularity the dependency structure actually has:

* **parses** per translation unit — an edit re-parses only the edited file,
  against snapshots of the shared macro/typedef/enum tables taken when the
  corpus was last parsed (the corpus models kernel-wide headers by sharing
  those tables across files, so re-parsing one file in the middle of the
  sequence needs the tables rolled back to that point and verified after);
* **constant facts** per function, keyed on the function's rendered body;
* **summaries** per call-graph SCC, under Merkle-style keys
  (:func:`repro.dataflow.interproc.scc_fingerprints`) that fold each
  member's body hash, its resolved out-edges and every callee component's
  key — so editing one function dirties exactly its component and the
  components that (transitively) call it.  One wave loop, in this process,
  takes each component from memory, else from the persistent store, else
  from a fresh fixpoint;
* **checker shards** per (analysis, translation unit), keyed on the unit's
  function bodies plus exactly what the analysis declares its shard reads
  about functions outside the unit (:class:`~repro.engine.analyses.ShardReads`):
  the functions' SCC keys, which fold in every callee's, for errcheck and
  lockcheck; the signature hash of every name the bodies reference for
  Deputy; nothing for CCount.  So a body edit that keeps its function's
  signature re-runs Deputy only in the edited unit;
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
   location streams), not from object identity.  Whenever an in-place
   re-parse cannot be proven equivalent to a from-scratch parse — the edit
   changed a macro, a typedef, a type definition, any top-level
   declaration, or simply failed one of the post-parse table checks — the
   analyzer falls back to a full re-parse of the corpus.  All derived
   stores hold plain data (summaries, constant facts, shard payload dicts;
   the same records the engine already pickles to disk), so they remain
   valid across that fallback and keep their hits.
2. *Dirty components re-solve from bottom.*  A dirty SCC starts at the
   lattice bottom exactly as a cold solve does, with clean dependency
   summaries supplied read-only — the least fixpoint is the same one a
   from-scratch run computes, so incremental reports are byte-identical
   with batch reports by construction (the invalidation tests assert
   this literally).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

from .. import source_digest
from ..analyses.errcheck import find_error_returning_functions
from ..annotations.attrs import AnnotationSet
from ..blockstop.blocking import derive_blocking
from ..blockstop.callgraph import build_direct_callgraph
from ..blockstop.checker import find_irq_handlers
from ..blockstop.pointsto import FunctionPointerAnalysis, Precision
from ..dataflow.domains import DEFAULT_DOMAINS, domain_fingerprint, facts_of
from ..dataflow.interproc import (
    callgraph_fingerprint,
    condense_callgraph,
    scc_fingerprints,
    solve_scc,
)
from ..dataflow.summaries import SummaryContext, build_context
from ..deputy.checker import DeputyOptions
from ..deputy.typesystem import TypeEnv
from ..engine.analyses import (
    ANALYSIS_ORDER,
    ShardReads,
    diagnostics_report,
    make_registry,
)
from ..engine.artifacts import SharedArtifacts, unit_function_map
from ..engine.core import EngineReport, summary_stats
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..kernel.build import PARSE_COUNTS, ParseDiagnostic, link_tolerant
from ..kernel.corpus import KERNEL_FILES, CorpusFile
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.errors import MiniCError
from ..minic.lexer import tokenize
from ..minic.parser import Parser
from ..minic.pretty import PrettyPrinter
from ..minic.source import Preprocessor
from ..minic.symtab import TypeRegistry
from ..minic.syntax import FunctionSyntax
from ..minic.visitor import walk


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _content_key(corpus_file: CorpusFile) -> str:
    digest = hashlib.sha256()
    for part in (source_digest(), corpus_file.filename, corpus_file.source,
                 "1" if corpus_file.kernel else "0"):
        raw = part.encode()
        digest.update(f"{len(raw)}:".encode())
        digest.update(raw)
    return digest.hexdigest()[:32]


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
    typedef_renders: dict[str, str]
    enum_constants: dict[str, int]
    struct_keys: frozenset[str]
    enum_keys: frozenset[str]
    structs_complete: frozenset[str]
    enums_complete: frozenset[str]
    anon: int


@dataclass
class _UnitRecord:
    """One corpus slot: its last good parse and how it changed the tables."""

    filename: str
    #: The source that produced ``unit`` (the *last good* source; on a
    #: parse error this keeps serving while ``content_key`` tracks the
    #: broken text so it isn't futilely re-parsed every pass).
    corpus_file: CorpusFile
    content_key: str
    unit: ast.TranslationUnit | None
    diagnostic: ParseDiagnostic | None
    pre: _TableSnapshot
    post: _TableSnapshot
    structs_completed: tuple[str, ...] = ()
    enums_completed: tuple[str, ...] = ()
    struct_renders: dict[str, str] = field(default_factory=dict)
    enum_members: dict[str, dict[str, int]] = field(default_factory=dict)
    decl_render: str = ""


@dataclass(frozen=True)
class _FunctionRecord:
    """What one pass derived from a linked FuncDef, for the next pass.

    A unit that is not re-parsed keeps its FuncDef objects, and no analysis
    mutates the shared program, so the syntax record, the hashes, the
    referenced names and the type environment carry over as long as the
    same object is linked again.  ``annotation_count`` guards the one
    in-place change linking itself makes: merging a prototype's annotations
    into the definition (which only ever adds).
    """

    func: ast.FuncDef
    annotation_count: int
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


def _annotation_count(func: ast.FuncDef) -> int:
    ftype = func.type.strip()
    return len(func.annotations) + len(getattr(ftype, "annotations", ()))


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
    taken functions by it), each call's callee or "indirect" with its
    location, each function reference passed as an argument or assigned,
    with the assigned field's name.  A function with an indirect call also
    folds in its ``sem_hash``: resolving the call types the pointer
    expression through the function's locals."""
    parts = [sig_hash]
    indirect = False
    for call in syntax.calls:
        target = call.func
        if isinstance(target, ast.Ident):
            parts.append(f"call {target.name} {call.location}")
        else:
            indirect = True
            parts.append(f"indirect {call.location}")
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
class _PassState:
    """What the last completed pass derived, for the next pass to reuse.

    The artifacts are shared with the snapshot the service's readers may
    still hold, so a pass reads them and never mutates them.
    """

    globals_fp: str
    #: function name -> record, in ``program.functions`` order.
    records: dict[str, _FunctionRecord]
    artifacts: SharedArtifacts
    #: The summary context, re-created with each pass's program and facts.
    context: SummaryContext
    callgraph_fp: str
    scc_keys: list[str]


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
    dirty_sccs: int = 0
    sccs_reused: int = 0
    dirty_functions: list[str] = field(default_factory=list)
    shards_rerun: int = 0
    #: ``shards_rerun`` split by analysis: every registered name, 0 allowed.
    shards_rerun_by_analysis: dict[str, int] = field(default_factory=dict)
    shards_reused: int = 0
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
        return {
            "revision": self.revision,
            "full_reparse": self.full_reparse,
            "reparse_reason": self.reparse_reason,
            "parsed_units": self.parsed_units,
            "reused_units": self.reused_units,
            "parse_errors": self.parse_errors,
            "consts_solved": self.consts_solved,
            "consts_reused": self.consts_reused,
            "dirty_sccs": self.dirty_sccs,
            "sccs_reused": self.sccs_reused,
            "dirty_functions": list(self.dirty_functions),
            "shards_rerun": self.shards_rerun,
            "shards_rerun_by_analysis": dict(self.shards_rerun_by_analysis),
            "shards_reused": self.shards_reused,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "indexed_functions": self.indexed_functions,
            "rebuilt_artifacts": list(self.rebuilt_artifacts),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }


class IncrementalAnalyzer:
    """Re-analyze an evolving corpus, redoing only invalidated work.

    ``analyze()`` runs one full pass and returns an :class:`EngineReport`
    byte-identical (up to timing/cache-stat fields) with what a fresh
    :class:`~repro.engine.AnalysisEngine` would produce over the same
    sources; ``last_stats`` records what the pass reused.  Passes are
    serialized — the service runs them behind a lock and publishes
    immutable snapshots for readers — and each runs in this process: a
    dirty SCC's fixpoint costs less than shipping its callee summaries to
    a worker, and a pool forked per pass would fork from a process that
    already runs the service's HTTP and watcher threads.
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
        #: SCC Merkle key -> solved {name: FunctionSummary} for the component
        self._scc_store: dict[str, dict] = {}
        #: shard key -> run_shard payload dict
        self._shard_store: dict[str, dict] = {}
        #: The last completed pass's derived state, its function records
        #: included (None before the first pass).
        self._last: _PassState | None = None
        self.revision = 0
        self.last_stats: IncrementalStats | None = None
        #: The last pass's shared artifacts (the service's /summaries source).
        self.artifacts: SharedArtifacts | None = None

    # -- parsing -------------------------------------------------------------

    def _snapshot(self) -> _TableSnapshot:
        registry = self._type_registry
        printer = self._printer
        return _TableSnapshot(
            macros=dict(self._preprocessor.defines),
            typedefs=dict(registry.typedefs),
            typedef_renders={name: printer.type_name(ctype)
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
        for key in record.structs_completed:
            self._reset_struct(registry.structs[key])
        for tag in record.enums_completed:
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
        PARSE_COUNTS[corpus_file.filename] += 1
        text = self._preprocessor.process(corpus_file.source, corpus_file.filename)
        tokens = tokenize(text, corpus_file.filename)
        parser = Parser(tokens, corpus_file.filename, self._type_registry)
        return parser.parse_translation_unit()

    def _build_record(self, pre: _TableSnapshot, corpus_file: CorpusFile,
                      unit: ast.TranslationUnit) -> _UnitRecord:
        post = self._snapshot()
        registry = self._type_registry
        printer = self._printer
        structs_completed = tuple(sorted(post.structs_complete - pre.structs_complete))
        enums_completed = tuple(sorted(post.enums_complete - pre.enums_complete))
        return _UnitRecord(
            filename=corpus_file.filename,
            corpus_file=corpus_file,
            content_key=_content_key(corpus_file),
            unit=unit,
            diagnostic=None,
            pre=pre,
            post=post,
            structs_completed=structs_completed,
            enums_completed=enums_completed,
            struct_renders={key: printer.print_type_definition(registry.structs[key])
                            for key in structs_completed},
            enum_members={tag: dict(registry.enums[tag].members)
                          for tag in enums_completed},
            decl_render="\n".join(printer.print_top_level(decl)
                                  for decl in unit.decls
                                  if not isinstance(decl, ast.FuncDef)))

    def _attempt_effect(self, attempt_pre: _TableSnapshot,
                        unit: ast.TranslationUnit) -> dict:
        """What a just-finished re-parse attempt did to the shared state.

        The pure tables (macros, typedefs, enum constants, the anonymous-tag
        counter) are reported as absolute values: the attempt started from
        ``record.pre`` exactly, so ending state equals the old ``post`` iff
        the file's contribution is unchanged.  Completion sets are reported
        as *deltas* from ``attempt_pre`` instead — the registry legitimately
        still holds types created by *later* files (their objects are never
        rolled back; downstream units hold references into them), so the
        absolute sets can never match a mid-corpus record's sequential
        snapshot.  Bare tag *interning* is deliberately not part of the
        effect: first mention of an unknown ``struct s`` just creates the
        shared registry object that any unit would create identically, the
        parser never consults completeness for it (layout is computed after
        linking), and named creation moves no counter — so it cannot change
        how a downstream unit parses.
        """
        post = self._snapshot()
        registry = self._type_registry
        printer = self._printer
        structs_completed = tuple(sorted(
            post.structs_complete - attempt_pre.structs_complete))
        enums_completed = tuple(sorted(
            post.enums_complete - attempt_pre.enums_complete))
        return {
            "macros": post.macros,
            "typedef_renders": post.typedef_renders,
            "enum_constants": post.enum_constants,
            "anon": post.anon,
            "structs_completed": structs_completed,
            "enums_completed": enums_completed,
            "struct_renders": {
                key: printer.print_type_definition(registry.structs[key])
                for key in structs_completed},
            "enum_members": {tag: dict(registry.enums[tag].members)
                             for tag in enums_completed},
            "decl_render": "\n".join(printer.print_top_level(decl)
                                     for decl in unit.decls
                                     if not isinstance(decl, ast.FuncDef)),
        }

    def _effect_matches(self, record: _UnitRecord, effect: dict) -> bool:
        """Was the edit *body-only*?  Any observable difference in how the
        file affects shared state — macros, typedefs, enum constants, type
        definitions, top-level declarations, even the anonymous-tag count —
        disqualifies the in-place re-parse and forces a full one."""
        old_post = record.post
        return (effect["macros"] == old_post.macros
                and effect["typedef_renders"] == old_post.typedef_renders
                and effect["enum_constants"] == old_post.enum_constants
                and effect["anon"] == old_post.anon
                and effect["structs_completed"] == record.structs_completed
                and effect["enums_completed"] == record.enums_completed
                and effect["struct_renders"] == record.struct_renders
                and effect["enum_members"] == record.enum_members
                and effect["decl_render"] == record.decl_render)

    def _reparse_unit(self, index: int, corpus_file: CorpusFile,
                      stats: IncrementalStats) -> bool:
        """Re-parse one edited file in place; False means "full-parse me".

        The attempt is only accepted when the new parse's effect on the
        shared tables is provably identical to the old one's — otherwise
        downstream (not re-parsed) units could have parsed differently.
        An accepted attempt therefore keeps the record's sequential
        ``pre``/``post`` snapshots verbatim: the guard just proved they
        still describe this file's boundaries exactly.
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
            diagnostic = ParseDiagnostic.of(corpus_file.filename, error)
            # Keep serving the last good parse: scrub the failed attempt,
            # then re-parse the last good source to re-complete the types
            # the rollback undid.
            self._undo_attempt(attempt_pre)
            try:
                good_unit = self._parse_source(record.corpus_file)
                stats.parsed_units += 1
            except MiniCError:
                return False
            if not self._effect_matches(
                    record, self._attempt_effect(attempt_pre, good_unit)):
                return False
            self._records[index] = replace(
                record, content_key=_content_key(corpus_file),
                diagnostic=diagnostic)
            return True
        if not self._effect_matches(
                record, self._attempt_effect(attempt_pre, unit)):
            return False
        self._records[index] = replace(
            record, corpus_file=corpus_file,
            content_key=_content_key(corpus_file),
            unit=unit, diagnostic=None)
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
                        corpus_file=corpus_file,
                        content_key=_content_key(corpus_file),
                        unit=None, diagnostic=diagnostic,
                        pre=pre, post=self._snapshot())
                else:
                    record.content_key = _content_key(corpus_file)
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
        changed = [index for index, corpus_file in enumerate(files)
                   if _content_key(corpus_file) != self._records[index].content_key]
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

    def _link(self) -> tuple[Program, tuple[ParseDiagnostic, ...]]:
        """Link the current units, isolating link-time errors per unit
        exactly like :func:`repro.kernel.build.parse_corpus_tolerant`."""
        program, diagnostics = link_tolerant(
            ((record.unit, record.diagnostic) for record in self._records),
            self._type_registry)
        program._corpus_preprocessor = self._preprocessor  # type: ignore[attr-defined]
        return program, diagnostics

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
        unless the globals moved — a unit dropped out of the link, say —
        in which case they are merged again, since a prototype may have
        gone.

        The global part folds every linked unit's ``decl_render``, in link
        order.  Those renders are taken before linking merges earlier
        prototypes' annotations into later ones, but linking is a function
        of the ordered renders, so they still determine the linked result.

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
            count = _annotation_count(decl)
            record = carried.get(name)
            if (record is not None and record.func is decl
                    and record.annotation_count == count):
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
                    func=decl, annotation_count=count, syntax=syntax,
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
                      stats: IncrementalStats):
        """Constant facts per function, and the memo for the next pass.

        Each function is looked up by key (body hash, globals fingerprint,
        domains) in memory, then in the persistent store, else solved.  The
        memo keeps each entry's store key, so a memory hit costs one tuple
        comparison.
        """
        memo = self._consts_store
        consts: dict = {}
        store: dict[str, tuple[tuple[str, str, str], str, object]] = {}
        domains = domain_fingerprint(DEFAULT_DOMAINS)
        # Values are wrapped in a 1-tuple on disk: ``None`` is a legitimate
        # artifact (branchless function), so a bare miss must be
        # distinguishable from a stored ``None``.
        disk_writes: list[tuple[str, tuple]] = []
        live: list[str] = []
        for name, func in program.functions.items():
            key = (records[name].sem_hash, globals_fp, domains)
            entry = memo.get(name)
            if entry is not None and entry[0] == key:
                stats.consts_reused += 1
                live.append(entry[1])
            else:
                disk_key = _sha("\x00".join(key))
                wrapped = (self.store.get("consts", disk_key)
                           if self.store is not None else None)
                if wrapped is not None:
                    value = wrapped[0]
                    stats.consts_reused += 1
                    stats.store_hits += 1
                else:
                    value = facts_of(func, syntax=program.syntax(name))
                    stats.consts_solved += 1
                    disk_writes.append((disk_key, (value,)))
                entry = (key, disk_key, value)
            consts[name] = entry[2]
            store[name] = entry
        if self.store is not None:
            self.store.put_many("consts", disk_writes)
            self.store.touch("consts", live)
            stats.store_writes += len(disk_writes)
        return consts, store

    def _solve_summaries(self, graph, condensation, context: SummaryContext,
                         scc_keys: list[str], stats: IncrementalStats):
        """Bottom-up solve reusing clean components from the SCC stores.

        Mirrors :func:`repro.dataflow.interproc.solve_summaries` wave
        order exactly (dict iteration order is observable downstream).
        Each component comes from memory, else from the persistent store,
        else from :func:`solve_scc`: a dirty component starts at lattice
        bottom with its callees' summaries supplied, so the result is the
        batch least fixpoint.  Returns the summaries, the memo for the next
        pass, and the members of every component not served from memory
        (whose summaries may differ from the last pass's).
        """
        memo = self._scc_store
        solved: dict = {}
        store: dict[str, dict] = {}
        dirty: list[str] = []
        fetched: list[str] = []
        disk_writes: dict[str, dict] = {}
        live: list[str] = []
        for wave in condensation.waves:
            for index in wave:
                scc = condensation.sccs[index]
                key = scc_keys[index]
                component = memo.get(key)
                if component is not None:
                    stats.sccs_reused += 1
                    live.append(key)
                else:
                    fetched.extend(scc)
                    wrapped = (self.store.get("scc", key)
                               if self.store is not None else None)
                    if wrapped is not None:
                        component = wrapped[0]
                        stats.sccs_reused += 1
                        stats.store_hits += 1
                    else:
                        component = solve_scc(scc, context, graph, solved)
                        dirty.extend(scc)
                        disk_writes[key] = component
                store[key] = component
                solved.update(component)
        stats.dirty_sccs = len(condensation.sccs) - stats.sccs_reused
        stats.dirty_functions = sorted(dirty)
        if self.store is not None:
            self.store.put_many(
                "scc", [(key, (component,))
                        for key, component in disk_writes.items()])
            self.store.touch("scc", live)
            stats.store_writes += len(disk_writes)
        return solved, store, fetched

    @staticmethod
    def _shard_key(name: str, filename: str, functions: list[str],
                   records: dict[str, _FunctionRecord],
                   outside: dict[str, str], globals_fp: str,
                   salt: str) -> str:
        """A per-unit shard's key: the unit's location hashes plus, for each
        of its functions, what the analysis reads outside the unit
        (``outside``: function name -> that content, as text)."""
        parts = [name, filename, globals_fp, salt]
        for function in functions:
            parts.append(f"{function}={records[function].loc_hash}")
            parts.append(outside.get(function, ""))
        return _sha("\x00".join(parts))

    @staticmethod
    def _signatures_read(records: dict[str, _FunctionRecord]) -> dict[str, str]:
        """Function name -> ``name:sig_hash`` of every identifier its body
        names, locals included: the call-contract check and the type of a
        call resolve a direct callee through ``Program.function_type``
        without looking at locals.  A name with no definition folds in
        bare, so a later definition changes the key."""
        signature = {name: f"{name}:{record.sig_hash}"
                     for name, record in records.items()}
        return {name: "\x00".join([signature.get(ref, ref)
                                   for ref in record.referenced])
                for name, record in records.items()}

    def _run_shards(self, artifacts: SharedArtifacts,
                    records: dict[str, _FunctionRecord],
                    scc_keys: list[str], globals_fp: str, callgraph_fp: str,
                    report: EngineReport, stats: IncrementalStats):
        """Run or reuse every checker shard and merge each analysis;
        returns the payload memo for the next pass."""
        condensation = artifacts.condensation
        scc_key_of: dict[str, str] = {}
        for index, scc in enumerate(condensation.sccs):
            for function in scc:
                scc_key_of[function] = scc_keys[index]
        outside_of = {ShardReads.CALLEE_SCC_KEYS: scc_key_of,
                      ShardReads.REFERENCED_SIGNATURES:
                          self._signatures_read(records),
                      ShardReads.NOTHING: {}}
        root_parts = [globals_fp, callgraph_fp]
        root_parts.extend(f"{name}={records[name].loc_hash}"
                          for name in sorted(records))
        root_fp = _sha("\x00".join(root_parts))
        store: dict[str, dict] = {}
        disk_writes: list[tuple[str, tuple]] = []
        disk_touches: list[str] = []
        for name in ANALYSIS_ORDER:
            if name not in self.registry:
                continue
            analysis = self.registry[name]
            salt = analysis.shard_salt(artifacts)
            stats.shards_rerun_by_analysis[name] = 0
            payloads = []
            if analysis.per_unit:
                outside = outside_of[analysis.shard_reads]
                keys = [
                    self._shard_key(name, filename, functions, records,
                                    outside, globals_fp, salt)
                    for filename, functions in artifacts.unit_functions.items()
                    if functions]
                tasks = [functions for functions
                         in artifacts.unit_functions.values() if functions]
            else:
                keys = [_sha("\x00".join([name, root_fp, salt]))]
                tasks = [None]
            for key, functions in zip(keys, tasks):
                payload = self._shard_store.get(key)
                if payload is None:
                    wrapped = (self.store.get("shard", key)
                               if self.store is not None else None)
                    if wrapped is not None:
                        payload = wrapped[0]
                        stats.shards_reused += 1
                        stats.store_hits += 1
                    else:
                        payload = analysis.run_shard(artifacts, functions)
                        stats.shards_rerun += 1
                        stats.shards_rerun_by_analysis[name] += 1
                        disk_writes.append((key, (payload,)))
                else:
                    stats.shards_reused += 1
                    disk_touches.append(key)
                store[key] = payload
                payloads.append(payload)
            report.analyses[name] = analysis.merge(artifacts, payloads)
        if self.store is not None:
            self.store.put_many("shard", disk_writes)
            self.store.touch("shard", disk_touches)
            stats.store_writes += len(disk_writes)
        return store

    def analyze(self, files: tuple[CorpusFile, ...] | None = None) -> EngineReport:
        """Run one incremental pass; returns the merged engine report.

        Every corpus-wide artifact is the last pass's when the inputs it
        reads did not change, and is rebuilt otherwise; a cold pass is the
        case where every comparison misses.  What the analysis carries to
        the next pass — function records, memos, the last pass's artifacts
        — is replaced only when the pass completes, so after a pass that
        raises the next one compares against the last completed pass.  (The
        parse state and the carried type environments' ``program`` move
        during the pass; the next pass re-links and re-points them.)
        """
        start = time.perf_counter()
        self.revision += 1
        stats = IncrementalStats(revision=self.revision)
        files = tuple(files) if files is not None else self.files
        self._reconcile_parse(files, stats)
        self.files = files
        program, diagnostics = self._link()
        stats.parse_errors = len(diagnostics)

        records, globals_fp, type_envs = self._fingerprint(program, stats)
        last = self._last
        old = last.records if last is not None else {}
        # The same functions in the same order over the same globals; then
        # whether each record's hashes equal its predecessor's.
        same_frame = (last is not None and last.globals_fp == globals_fp
                      and list(records) == list(old))
        structure_same = same_frame and all(
            record.structure_hash == old[name].structure_hash
            for name, record in records.items())
        bodies_same = same_frame and all(
            record.sem_hash == old[name].sem_hash
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

        consts, consts_store = self._solve_consts(program, globals_fp,
                                                  records, stats)
        # The condensation and the graph fingerprint read the edge set
        # alone, so they also survive a rebuild that moved only call sites.
        if last is not None and (structure_same
                                 or graph.edges == last.artifacts.graph.edges):
            condensation = last.artifacts.condensation
            callgraph_fp = last.callgraph_fp
        else:
            condensation = condense_callgraph(graph)
            callgraph_fp = callgraph_fingerprint(graph)
            rebuilt.append("condensation")
        if bodies_same and condensation is last.artifacts.condensation:
            scc_keys = last.scc_keys
        else:
            scc_keys = scc_fingerprints(
                condensation, graph,
                {name: record.sem_hash for name, record in records.items()},
                globals_fp)
        # The context's seed sets and resolved indirect callees read the
        # annotations and the graph; its program and facts are this pass's.
        if structure_same:
            context = replace(last.context, program=program,
                              consts=dict(consts))
        else:
            context = build_context(program, graph, consts=consts)
            rebuilt.append("summary_context")
        summaries, scc_store, fetched = self._solve_summaries(
            graph, condensation, context, scc_keys, stats)
        if structure_same and all(
                summaries[name] == last.artifacts.summaries.get(name)
                for name in fetched):
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
            unit_functions=unit_function_map(program),
        )

        report = EngineReport(
            corpus_files=[f.filename for f in files],
            precision=self.precision.name.lower(),
            jobs=1, parallel=False)
        shard_store = self._run_shards(artifacts, records, scc_keys,
                                       globals_fp, callgraph_fp, report, stats)
        if diagnostics:
            report.analyses["diagnostics"] = diagnostics_report(diagnostics)

        report.summary_stats = summary_stats(
            artifacts, summary_cache_hit=stats.dirty_sccs == 0,
            consts_cache_hit=stats.consts_solved == 0)
        report.cache_stats = {
            "hits": stats.consts_reused + stats.sccs_reused + stats.shards_reused,
            "misses": stats.consts_solved + stats.dirty_sccs + stats.shards_rerun,
            "disk_hits": stats.store_hits,
            "evictions": 0,
            "const_solve_ms": 0.0,
        }

        # The pass completed: commit what the next one reuses.
        self._consts_store = consts_store
        self._scc_store = scc_store
        self._shard_store = shard_store
        self._last = _PassState(
            globals_fp=globals_fp, records=records, artifacts=artifacts,
            context=context, callgraph_fp=callgraph_fp, scc_keys=scc_keys)
        self.artifacts = artifacts
        stats.elapsed_seconds = time.perf_counter() - start
        report.elapsed_seconds = stats.elapsed_seconds
        self.last_stats = stats
        return report
