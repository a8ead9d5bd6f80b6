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
  components that (transitively) call it;
* **checker shards** per (analysis, translation unit), keyed on the unit's
  function bodies plus, for interprocedural analyses, those functions'
  SCC keys.

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
from ..dataflow.summaries import build_context
from ..deputy.checker import DeputyOptions
from ..deputy.typesystem import TypeEnv
from ..engine.analyses import ANALYSIS_ORDER, diagnostics_report, make_registry
from ..engine.artifacts import SharedArtifacts, unit_function_map
from ..engine.core import EngineReport, _make_steal_handler
from ..engine.scheduler import (
    Task,
    WorkStealingExecutor,
    fork_available,
    resolve_jobs,
    usable_cpus,
)
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..kernel.build import PARSE_COUNTS, ParseDiagnostic, _diagnostic_kind
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


def _dirty_scc_payload(scc, graph, condensation, consts, clean, dirty):
    """Late-bound payload for one dirty SCC task.

    Ships ``(scc, needed, member_facts)`` exactly like the engine's steal
    path, except out-of-component callee summaries can come from *either*
    a dirty dependency's task result or the clean store (``clean``)."""

    def payload_fn(results):
        members = set(scc)
        needed = {}
        for name in scc:
            for callee in graph.edges.get(name, ()):
                if callee in members or callee in needed:
                    continue
                owner = condensation.scc_of.get(callee)
                if owner in dirty:
                    component = results.get(f"scc:{owner}")
                    if component is not None and callee in component:
                        needed[callee] = component[callee]
                elif callee in clean:
                    needed[callee] = clean[callee]
        member_facts = {name: consts[name] for name in scc if name in consts}
        return (scc, needed, member_facts)

    return payload_fn


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

    def tables_equal(self, other: "_TableSnapshot") -> bool:
        """Compare by rendered content, never by deep object equality
        (registry types are cyclic; renders name the cycle instead)."""
        return (self.macros == other.macros
                and self.typedef_renders == other.typedef_renders
                and self.enum_constants == other.enum_constants
                and self.struct_keys == other.struct_keys
                and self.enum_keys == other.enum_keys
                and self.structs_complete == other.structs_complete
                and self.enums_complete == other.enums_complete
                and self.anon == other.anon)


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
    mutates the shared program, so the syntax record and both hashes carry
    over as long as the same object is linked again.  ``annotation_count``
    guards the one in-place change linking itself makes: merging a
    prototype's annotations into the definition (which only ever adds).
    """

    func: ast.FuncDef
    annotation_count: int
    syntax: FunctionSyntax
    sem_hash: str
    loc_hash: str


def _annotation_count(func: ast.FuncDef) -> int:
    ftype = func.type.strip()
    return len(func.annotations) + len(getattr(ftype, "annotations", ()))


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
    shards_reused: int = 0
    #: Worker count the dirty-SCC re-solve actually ran with (0 = serial).
    parallel_jobs: int = 0
    #: Artifacts served from the persistent store (cold-start warm hits).
    store_hits: int = 0
    #: Artifacts written through to the persistent store this pass.
    store_writes: int = 0
    #: Functions whose syntax record and hashes were rebuilt this pass
    #: (the functions of re-parsed units; 0 on a no-op pass).
    indexed_functions: int = 0
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
            "shards_reused": self.shards_reused,
            "parallel_jobs": self.parallel_jobs,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "indexed_functions": self.indexed_functions,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }


class IncrementalAnalyzer:
    """Re-analyze an evolving corpus, redoing only invalidated work.

    ``analyze()`` runs one full pass and returns an :class:`EngineReport`
    byte-identical (up to timing/cache-stat fields) with what a fresh
    :class:`~repro.engine.AnalysisEngine` would produce over the same
    sources; ``last_stats`` records what the pass reused.  Passes are
    serialized — the service runs them behind a lock and publishes
    immutable snapshots for readers — but *within* a pass the dirty-SCC
    re-solve can fan out over the engine's work-stealing executor when
    ``jobs`` allows it (the merge replays serial wave order, so the
    report stays byte-identical either way).
    """

    def __init__(self,
                 files: tuple[CorpusFile, ...] = KERNEL_FILES,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 deputy_options: DeputyOptions | None = None,
                 runtime_checks: RuntimeCheckSet | None = None,
                 jobs: int = 1,
                 store=None) -> None:
        self.files = tuple(files)
        self.defines = dict(defines or {})
        self.precision = precision
        #: Optional :class:`repro.service.store.PersistentStore`: the
        #: in-memory artifact stores spill through it, so a fresh analyzer
        #: over an unchanged corpus warm-starts with ~0 dirty SCCs.
        self.store = store
        #: Worker processes for the dirty-SCC re-solve (0 = auto-detect);
        #: passes with fewer than two dirty components stay serial.
        self.jobs = jobs
        self.registry = make_registry(deputy_options, runtime_checks)
        self._printer = PrettyPrinter()
        self._type_registry: TypeRegistry | None = None
        self._preprocessor: Preprocessor | None = None
        self._records: list[_UnitRecord] = []
        self._last_good: dict[str, CorpusFile] = {}
        #: function name -> ((body hash, globals fp, domains), facts | None)
        self._consts_store: dict[str, tuple[tuple[str, str, str], object]] = {}
        #: SCC Merkle key -> solved {name: FunctionSummary} for the component
        self._scc_store: dict[str, dict] = {}
        #: shard key -> run_shard payload dict
        self._shard_store: dict[str, dict] = {}
        #: id(FuncDef) -> what the last pass derived from that FuncDef.
        self._function_records: dict[int, _FunctionRecord] = {}
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
            diagnostic = ParseDiagnostic(
                filename=corpus_file.filename, kind=_diagnostic_kind(error),
                message=error.message, location=error.location)
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
                diagnostic = ParseDiagnostic(
                    filename=corpus_file.filename,
                    kind=_diagnostic_kind(error),
                    message=error.message, location=error.location)
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
        program = Program(registry=self._type_registry)
        diagnostics: list[ParseDiagnostic] = []
        linked: list[ast.TranslationUnit] = []
        for record in self._records:
            if record.diagnostic is not None:
                diagnostics.append(record.diagnostic)
            if record.unit is None:
                continue
            try:
                program.add_unit(record.unit)
                linked.append(record.unit)
            except MiniCError as error:
                diagnostics.append(ParseDiagnostic(
                    filename=record.filename, kind=_diagnostic_kind(error),
                    message=error.message, location=error.location))
                if len(program.units) != len(linked):
                    program = Program(registry=self._type_registry)
                    for good in linked:
                        program.add_unit(good)
        program._corpus_preprocessor = self._preprocessor  # type: ignore[attr-defined]
        return program, tuple(diagnostics)

    # -- fingerprints ---------------------------------------------------------

    def _fingerprint(self, program: Program, stats: IncrementalStats):
        """Per-function body hashes plus the corpus-global fingerprint.

        ``sem_hashes`` are *semantic*: the macro-expanded, pretty-printed
        body (signature and annotations included) — what summaries and
        constant facts can observe.  ``loc_hashes`` additionally fold every
        node's source position, because checker findings carry line
        numbers: an edit that only shifts a function down a line must
        invalidate its shard payloads without re-solving its summaries.

        Both hashes and the function's syntax record carry over from the
        last pass for every FuncDef object linked again (see
        :class:`_FunctionRecord`), so only the functions of re-parsed units
        are rendered and walked; ``stats.indexed_functions`` counts them.

        Building a :class:`TypeEnv` per function *first* is load-bearing:
        its construction canonically absorbs declarator-trailing Deputy
        annotations into the pointer types (idempotently), so rendering
        before it would hash a pre-canonical AST on the first pass and the
        canonical one ever after.  The envs are returned for reuse — the
        points-to pass and the deputy checker consume the same entries.
        """
        printer = self._printer
        sem_hashes: dict[str, str] = {}
        loc_hashes: dict[str, str] = {}
        type_envs: dict[str, TypeEnv] = {}
        global_parts = [source_digest(), self.precision.name,
                        json.dumps(self.defines, sort_keys=True)]
        carried = self._function_records
        records: dict[int, _FunctionRecord] = {}
        for unit in program.units:
            global_parts.append(f"@{unit.filename}")
            for decl in unit.decls:
                if not isinstance(decl, ast.FuncDef):
                    global_parts.append(printer.print_top_level(decl))
                    continue
                count = _annotation_count(decl)
                record = carried.get(id(decl))
                if (record is not None and record.func is decl
                        and record.annotation_count == count):
                    program.adopt_syntax(decl, record.syntax)
                    type_envs[decl.name] = TypeEnv(program, decl)
                else:
                    type_envs[decl.name] = TypeEnv(program, decl)
                    sem = _sha(printer.print_funcdef(decl))
                    digest = hashlib.sha256(sem.encode())
                    for node in walk(decl):
                        location = getattr(node, "location", None)
                        if location is not None:
                            digest.update(
                                f"{location.line}:{location.column};".encode())
                    record = _FunctionRecord(
                        func=decl, annotation_count=count,
                        syntax=program.syntax_of(decl), sem_hash=sem,
                        loc_hash=digest.hexdigest()[:32])
                    stats.indexed_functions += 1
                records[id(decl)] = record
                sem_hashes[decl.name] = record.sem_hash
                loc_hashes[decl.name] = record.loc_hash
        self._function_records = records
        globals_fp = _sha("\x00".join(global_parts))
        return sem_hashes, loc_hashes, globals_fp, type_envs

    # -- analysis -------------------------------------------------------------

    def _solve_consts(self, program: Program, globals_fp: str,
                      sem_hashes: dict[str, str],
                      stats: IncrementalStats) -> dict:
        consts: dict = {}
        store: dict[str, tuple[tuple[str, str, str], object]] = {}
        domains = domain_fingerprint(DEFAULT_DOMAINS)
        # Values are wrapped in a 1-tuple on disk: ``None`` is a legitimate
        # artifact (branchless function), so a bare miss must be
        # distinguishable from a stored ``None``.
        disk_writes: list[tuple[str, tuple]] = []
        disk_touches: list[str] = []
        for name, func in program.functions_subset(None):
            key = (sem_hashes[name], globals_fp, domains)
            disk_key = _sha("\x00".join(key))
            cached = self._consts_store.get(name)
            if cached is not None and cached[0] == key:
                value = cached[1]
                stats.consts_reused += 1
                disk_touches.append(disk_key)
            else:
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
            consts[name] = value
            store[name] = (key, value)
        self._consts_store = store
        if self.store is not None:
            self.store.put_many("consts", disk_writes)
            self.store.touch("consts", disk_touches)
            stats.store_writes += len(disk_writes)
        return consts

    def _solve_summaries(self, program: Program, graph, pointsto,
                         condensation, consts: dict, scc_keys: list[str],
                         stats: IncrementalStats) -> dict:
        """Bottom-up solve reusing clean components from the SCC store.

        Mirrors :func:`repro.dataflow.interproc.solve_summaries` wave
        order exactly (dict iteration order is observable downstream);
        dirty components start at lattice bottom with their clean
        dependencies supplied, so the result is the batch least fixpoint.
        When ``jobs`` allows it the dirty components are pre-solved on the
        work-stealing executor; the loop below still merges in serial wave
        order, so parallel and serial passes are byte-identical.
        """
        ctx = build_context(program, graph, consts=consts)
        # Components missing from memory may still be on disk: prefetch
        # them so they are neither scheduled on the pool nor re-solved.
        from_disk: dict[str, dict] = {}
        if self.store is not None:
            for index in range(len(condensation.sccs)):
                key = scc_keys[index]
                if key in self._scc_store or key in from_disk:
                    continue
                wrapped = self.store.get("scc", key)
                if wrapped is not None:
                    from_disk[key] = wrapped[0]
                    stats.store_hits += 1
        dirty_indices = {index for index in range(len(condensation.sccs))
                         if scc_keys[index] not in self._scc_store
                         and scc_keys[index] not in from_disk}
        presolved = self._presolve_dirty(program, graph, pointsto,
                                         condensation, consts, scc_keys,
                                         dirty_indices, stats)
        solved: dict = {}
        store: dict[str, dict] = {}
        dirty: list[str] = []
        disk_writes: dict[str, dict] = {}
        disk_touches: list[str] = []
        for wave in condensation.waves:
            for index in wave:
                scc = condensation.sccs[index]
                key = scc_keys[index]
                component = self._scc_store.get(key)
                if component is not None:
                    stats.sccs_reused += 1
                    disk_touches.append(key)
                elif key in from_disk:
                    component = from_disk[key]
                    stats.sccs_reused += 1
                else:
                    if presolved is not None and index in presolved:
                        component = presolved[index]
                    else:
                        component = solve_scc(scc, ctx, graph, solved)
                    dirty.extend(scc)
                    disk_writes[key] = component
                store[key] = component
                solved.update(component)
        stats.dirty_sccs = len(condensation.sccs) - stats.sccs_reused
        stats.dirty_functions = sorted(dirty)
        self._scc_store = store
        if self.store is not None:
            self.store.put_many(
                "scc", [(key, (component,))
                        for key, component in disk_writes.items()])
            self.store.touch("scc", disk_touches)
            stats.store_writes += len(disk_writes)
        return solved

    def _presolve_dirty(self, program, graph, pointsto, condensation,
                        consts: dict, scc_keys: list[str],
                        dirty: set[int],
                        stats: IncrementalStats) -> dict | None:
        """Solve the dirty components on a work-stealing pool, or ``None``.

        Only the *dirty* subgraph is scheduled: each dirty SCC depends on
        its dirty callee components (clean callee summaries come from the
        store and ship with the task payload), so the pool drains exactly
        the invalidated slice of the condensation with no barriers.  The
        pool forks fresh per pass — it must inherit *this* pass's parse.
        """
        jobs = resolve_jobs(self.jobs)
        if jobs < 2 or not fork_available() or len(dirty) < 2:
            return None
        effective = min(jobs, max(2, usable_cpus()))
        clean: dict = {}
        for index, scc in enumerate(condensation.sccs):
            if index not in dirty:
                clean.update(self._scc_store[scc_keys[index]])
        wave_of = {index: depth
                   for depth, wave in enumerate(condensation.waves)
                   for index in wave}
        tasks = []
        for index in sorted(dirty):
            deps = tuple(f"scc:{callee}"
                         for callee in condensation.scc_callees.get(index, ())
                         if callee in dirty)
            tasks.append(Task(
                id=f"scc:{index}", kind="scc", deps=deps,
                payload_fn=_dirty_scc_payload(condensation.sccs[index], graph,
                                              condensation, consts, clean,
                                              dirty),
                wave=wave_of.get(index, 0)))
        handler = _make_steal_handler(program, graph, pointsto,
                                      self.precision, self.registry)
        with WorkStealingExecutor(effective, handler) as executor:
            results = executor.run(tasks)
        stats.parallel_jobs = effective
        return {index: results[f"scc:{index}"] for index in sorted(dirty)}

    def _shard_key(self, analysis, name: str, filename: str,
                   functions: list[str], loc_hashes: dict[str, str],
                   scc_key_of: dict[str, str], globals_fp: str,
                   salt: str) -> str:
        parts = [name, filename, globals_fp, salt]
        for function in functions:
            parts.append(f"{function}={loc_hashes.get(function, '')}")
            if analysis.interprocedural:
                parts.append(scc_key_of.get(function, ""))
        return _sha("\x00".join(parts))

    def _run_shards(self, artifacts: SharedArtifacts, loc_hashes: dict[str, str],
                    scc_keys: list[str], globals_fp: str,
                    report: EngineReport, stats: IncrementalStats) -> None:
        condensation = artifacts.condensation
        scc_key_of: dict[str, str] = {}
        for index, scc in enumerate(condensation.sccs):
            for function in scc:
                scc_key_of[function] = scc_keys[index]
        root_parts = [globals_fp, callgraph_fingerprint(artifacts.graph)]
        root_parts.extend(f"{name}={loc_hashes[name]}"
                          for name in sorted(loc_hashes))
        root_fp = _sha("\x00".join(root_parts))
        store: dict[str, dict] = {}
        disk_writes: list[tuple[str, tuple]] = []
        disk_touches: list[str] = []
        for name in ANALYSIS_ORDER:
            if name not in self.registry:
                continue
            analysis = self.registry[name]
            salt = analysis.shard_salt(artifacts)
            payloads = []
            if analysis.per_unit:
                keys = [
                    self._shard_key(analysis, name, filename, functions,
                                    loc_hashes, scc_key_of, globals_fp, salt)
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
                        disk_writes.append((key, (payload,)))
                else:
                    stats.shards_reused += 1
                    disk_touches.append(key)
                store[key] = payload
                payloads.append(payload)
            report.analyses[name] = analysis.merge(artifacts, payloads)
        self._shard_store = store
        if self.store is not None:
            self.store.put_many("shard", disk_writes)
            self.store.touch("shard", disk_touches)
            stats.store_writes += len(disk_writes)

    def analyze(self, files: tuple[CorpusFile, ...] | None = None) -> EngineReport:
        """Run one incremental pass; returns the merged engine report."""
        start = time.perf_counter()
        self.revision += 1
        stats = IncrementalStats(revision=self.revision)
        files = tuple(files) if files is not None else self.files
        self._reconcile_parse(files, stats)
        self.files = files
        program, diagnostics = self._link()
        stats.parse_errors = len(diagnostics)

        sem_hashes, loc_hashes, globals_fp, type_envs = self._fingerprint(
            program, stats)
        graph, indirect_calls = build_direct_callgraph(program)
        pointsto_pass = FunctionPointerAnalysis(program, self.precision)
        pointsto_pass.collect()
        pointsto = pointsto_pass.resolve(graph, indirect_calls, envs=type_envs)

        consts = self._solve_consts(program, globals_fp, sem_hashes, stats)
        condensation = condense_callgraph(graph)
        scc_keys = scc_fingerprints(condensation, graph, sem_hashes, globals_fp)
        summaries = self._solve_summaries(program, graph, pointsto,
                                          condensation, consts, scc_keys,
                                          stats)

        artifacts = SharedArtifacts(
            program=program,
            precision=self.precision,
            graph=graph,
            pointsto=pointsto,
            consts=consts,
            condensation=condensation,
            summaries=summaries,
            blocking=derive_blocking(program, graph, summaries),
            irq_handlers=find_irq_handlers(program),
            error_returning=find_error_returning_functions(program, summaries),
            annotations={name: program.function_annotations(name)
                         for name in program.all_function_names()},
            type_envs=type_envs,
            unit_functions=unit_function_map(program),
        )
        self.artifacts = artifacts

        report = EngineReport(
            corpus_files=[f.filename for f in files],
            precision=self.precision.name.lower(),
            jobs=1, parallel=False)
        self._run_shards(artifacts, loc_hashes, scc_keys, globals_fp,
                         report, stats)
        if diagnostics:
            report.analyses["diagnostics"] = diagnostics_report(diagnostics)

        solved_consts = [fc for fc in consts.values() if fc is not None]
        interval_edges = sum(len(fc.interval_pruned) for fc in solved_consts)
        octagon_edges = sum(len(fc.octagon_pruned) for fc in solved_consts)
        report.summary_stats = {
            "functions": len(summaries),
            "sccs": len(condensation.sccs),
            "waves": len(condensation.waves),
            "largest_wave": max((len(w) for w in condensation.waves), default=0),
            "recursive_functions": len(condensation.recursive_functions()),
            "cache_hit": stats.dirty_sccs == 0,
            "consts_functions": len(solved_consts),
            "consts_pruned_functions": sum(
                1 for fc in solved_consts
                if len(fc.infeasible) > len(fc.interval_pruned)
                + len(fc.octagon_pruned)),
            "consts_infeasible_edges": (sum(len(fc.infeasible)
                                            for fc in solved_consts)
                                        - interval_edges - octagon_edges),
            "consts_cache_hit": stats.consts_solved == 0,
            "intervals_pruned_functions": sum(
                1 for fc in solved_consts if fc.interval_pruned),
            "intervals_infeasible_edges": interval_edges,
            "octagons_pruned_functions": sum(
                1 for fc in solved_consts if fc.octagon_pruned),
            "octagons_infeasible_edges": octagon_edges,
        }
        report.cache_stats = {
            "hits": stats.consts_reused + stats.sccs_reused + stats.shards_reused,
            "misses": stats.consts_solved + stats.dirty_sccs + stats.shards_rerun,
            "disk_hits": stats.store_hits,
            "evictions": 0,
            "const_solve_ms": 0.0,
        }
        stats.elapsed_seconds = time.perf_counter() - start
        report.elapsed_seconds = stats.elapsed_seconds
        self.last_stats = stats
        return report
