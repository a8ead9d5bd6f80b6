"""The unified analysis engine.

:class:`AnalysisEngine` parses each corpus translation unit exactly once,
derives the shared artifacts (AST, symbol tables, annotations, call graph,
points-to solution) through the content-keyed :class:`ArtifactCache`, and
dispatches every registered analysis over them.  Every run parses in this
process, through :func:`parse_corpus` (or :func:`parse_corpus_tolerant`):
the units share one macro and type table, so each unit parses after the
ones before it.  A run then takes one of two paths, picked from what it
can observe (:func:`worker_count`): direct serial calls when it resolves to
one worker or the platform cannot ``fork``; otherwise one persistent
:class:`WorkStealingExecutor`, forked after points-to, for the per-unit
constant facts and the checker shards.  Summaries are solved in the parent
on both paths, by :func:`solve_summaries`.  Both paths merge through the
same code in the same order, so their reports are byte-identical.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..blockstop.pointsto import Precision
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..dataflow.domains import (
    DEFAULT_DOMAINS,
    domain_fingerprint,
    solve_program_facts,
)
from ..dataflow.interproc import callgraph_fingerprint, solve_summaries
from ..deputy.checker import DeputyOptions
from ..kernel.build import ParseDiagnostic, parse_corpus, parse_corpus_tolerant
from ..kernel.corpus import KERNEL_FILES, CorpusFile
from ..machine.program import Program
from .analyses import (
    ANALYSIS_ORDER,
    AnalysisReport,
    diagnostics_report,
    finding_sort_key,
    make_registry,
)
from .artifacts import (
    ArtifactCache,
    SharedArtifacts,
    build_shared_artifacts,
    unit_function_map,
)
from .scheduler import (
    Task,
    WorkStealingExecutor,
    fork_available,
    resolve_jobs,
    usable_cpus,
)

#: Task tuple: (analysis name, shard index, function subset or None).
_Task = tuple[str, int, "list[str] | None"]


def worker_count(jobs: int) -> int:
    """How many worker processes a run at ``jobs`` forks; 1 means serial.

    The count is the size of the run's one pool, the executor; the parse
    forks nothing.  ``jobs=0`` resolves to every usable CPU.  Without
    ``fork`` there is no pool at all.  Otherwise the pool is clamped to the
    affinity mask — workers beyond it only add fork/IPC cost while
    time-slicing the same cores — but an explicit ``jobs >= 2`` keeps a
    floor of two workers so parallel behavior stays testable on any host.
    """
    jobs = resolve_jobs(jobs)
    if jobs < 2 or not fork_available():
        return 1
    return min(jobs, max(2, usable_cpus()))


def _make_steal_handler(program, graph, pointsto, precision, registry):
    """The per-worker task handler for work-steal mode.

    Returns a closure over the phase-independent artifacts (parsed program,
    resolved call graph, points-to solution) — workers receive it through
    ``fork()`` at executor construction, so none of it is ever pickled.
    A ``consts`` task's payload names the unit functions to solve; a
    ``shard`` task reads the merged artifacts from the broadcast state, and
    ``memo`` keeps the artifact view a worker assembles from them once.
    """
    memo: dict = {}

    def handler(kind, payload, state):
        if kind == "consts":
            return solve_program_facts(program, payload)
        if kind == "shard":
            name, index, functions = payload
            data = state["artifacts"]
            artifacts = memo.get("artifacts")
            if artifacts is None or memo.get("artifacts_from") is not data:
                artifacts = SharedArtifacts(
                    program=program,
                    precision=precision,
                    graph=graph,
                    pointsto=pointsto,
                    consts=data["consts"],
                    condensation=data["condensation"],
                    summaries=data["summaries"],
                    blocking=data["blocking"],
                    irq_handlers=data["irq_handlers"],
                    error_returning=data["error_returning"],
                    annotations=data["annotations"],
                    unit_functions=unit_function_map(program))
                memo["artifacts"] = artifacts
                memo["artifacts_from"] = data
            return name, index, registry[name].run_shard(artifacts, functions)
        raise ValueError(f"unknown task kind {kind!r}")

    return handler


def summary_stats(artifacts: SharedArtifacts, summary_cache_hit: bool,
                  consts_cache_hit: bool) -> dict:
    """Condensation/summary metrics for the report (and the CI bench).

    The batch engine and the incremental analyzer both build their
    ``summary_stats`` here, each passing its own notion of whether the
    summaries and the constant facts came from a cache.

    The ``consts_*`` / ``intervals_*`` / ``octagons_*`` entries describe
    the condition facts artifact (the consts×intervals×octagons product):
    function coverage, how many functions each component pruned, and the
    per-component infeasible-edge counts — each pruned edge is attributed
    to exactly one component (the constant lattice first, then intervals,
    then octagons for edges only the relational domain proves dead), so the
    three edge counters sum to the total.  All pure functions of the
    sources, so serial and parallel reports agree byte-for-byte (the
    wall-clock solve time lives in ``cache_stats``, which report
    comparisons already normalize away).
    """
    condensation = artifacts.condensation
    solved = [fc for fc in artifacts.consts.values() if fc is not None]
    interval_edges = sum(len(fc.interval_pruned) for fc in solved)
    octagon_edges = sum(len(fc.octagon_pruned) for fc in solved)
    return {
        "functions": len(artifacts.summaries),
        "sccs": len(condensation.sccs),
        "waves": len(condensation.waves),
        "largest_wave": max((len(w) for w in condensation.waves), default=0),
        "recursive_functions": len(condensation.recursive_functions()),
        "cache_hit": summary_cache_hit,
        "consts_functions": len(solved),
        "consts_pruned_functions": sum(
            1 for fc in solved
            if len(fc.infeasible) > len(fc.interval_pruned)
            + len(fc.octagon_pruned)),
        "consts_infeasible_edges": (sum(len(fc.infeasible) for fc in solved)
                                    - interval_edges - octagon_edges),
        "consts_cache_hit": consts_cache_hit,
        "intervals_pruned_functions": sum(
            1 for fc in solved if fc.interval_pruned),
        "intervals_infeasible_edges": interval_edges,
        "octagons_pruned_functions": sum(
            1 for fc in solved if fc.octagon_pruned),
        "octagons_infeasible_edges": octagon_edges,
    }


@dataclass
class EngineReport:
    """The merged result of one engine run over the corpus."""

    analyses: dict[str, AnalysisReport] = field(default_factory=dict)
    corpus_files: list[str] = field(default_factory=list)
    precision: str = "type_based"
    jobs: int = 1
    parallel: bool = False
    elapsed_seconds: float = 0.0
    cache_stats: dict[str, int] = field(default_factory=dict)
    summary_stats: dict = field(default_factory=dict)
    #: Wall-clock breakdown and scheduler counters — timing-dependent, so
    #: (like ``cache_stats``) excluded from byte-identity comparisons.
    perf: dict = field(default_factory=dict)

    # -- queries ------------------------------------------------------------

    def all_findings(self) -> list[dict]:
        collected: list[dict] = []
        for name in sorted(self.analyses):
            collected.extend(self.analyses[name].findings)
        return sorted(collected, key=finding_sort_key)

    @property
    def finding_count(self) -> int:
        return sum(len(report.findings) for report in self.analyses.values())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "repro-engine-report/1",
            "corpus_files": self.corpus_files,
            "precision": self.precision,
            "jobs": self.jobs,
            "parallel": self.parallel,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "cache_stats": self.cache_stats,
            "summary_stats": self.summary_stats,
            "perf": self.perf,
            "analyses": {name: report.to_dict()
                         for name, report in self.analyses.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineReport":
        report = cls(
            corpus_files=list(payload.get("corpus_files", [])),
            precision=payload.get("precision", "type_based"),
            jobs=int(payload.get("jobs", 1)),
            parallel=bool(payload.get("parallel", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            cache_stats=dict(payload.get("cache_stats", {})),
            summary_stats=dict(payload.get("summary_stats", {})),
            perf=dict(payload.get("perf", {})),
        )
        for name, raw in payload.get("analyses", {}).items():
            report.analyses[name] = AnalysisReport.from_dict(raw)
        return report

    # -- rendering ----------------------------------------------------------

    def render_text(self) -> str:
        lines = ["== repro analysis engine =="]
        lines.append(f"corpus: {len(self.corpus_files)} translation units; "
                     f"precision {self.precision}; "
                     f"{'parallel, %d jobs' % self.jobs if self.parallel else 'serial'}")
        if self.cache_stats:
            lines.append("cache: {hits} hits, {misses} misses, "
                         "{disk_hits} from disk".format(**self.cache_stats))
        if self.perf:
            phases = self.perf.get("phases", {})
            scheduler = self.perf.get("scheduler", {})
            lines.append(
                "perf: parse {parse:.2f}s, artifacts {artifacts:.2f}s, "
                "checkers {checkers:.2f}s [{mode}]".format(
                    parse=phases.get("parse", 0.0),
                    artifacts=phases.get("artifacts", 0.0),
                    checkers=phases.get("checkers", 0.0),
                    mode=scheduler.get("mode", "serial")))
            if "worker_idle_ratio" in scheduler:
                lines.append(
                    "scheduler: {tasks} tasks in {chunks} chunks, "
                    "max ready {max_ready}, idle {idle:.0%}".format(
                        tasks=scheduler.get("tasks", 0),
                        chunks=scheduler.get("chunks", 0),
                        max_ready=scheduler.get("max_ready", 0),
                        idle=scheduler.get("worker_idle_ratio", 0.0)))
        if self.summary_stats:
            lines.append(
                "summaries: {functions} functions in {sccs} SCCs "
                "({recursive} recursive) over {waves} waves; "
                "cache {cache}".format(
                    functions=self.summary_stats.get("functions", 0),
                    sccs=self.summary_stats.get("sccs", 0),
                    recursive=self.summary_stats.get("recursive_functions", 0),
                    waves=self.summary_stats.get("waves", 0),
                    cache="hit" if self.summary_stats.get("cache_hit")
                    else "miss"))
            lines.append(
                "consts: {functions} functions solved, {pruned} with "
                "infeasible edges ({edges} edges pruned); cache {cache}".format(
                    functions=self.summary_stats.get("consts_functions", 0),
                    pruned=self.summary_stats.get("consts_pruned_functions", 0),
                    edges=self.summary_stats.get("consts_infeasible_edges", 0),
                    cache="hit" if self.summary_stats.get("consts_cache_hit")
                    else "miss"))
            lines.append(
                "intervals: {pruned} functions with interval-only pruning "
                "({edges} edges pruned)".format(
                    pruned=self.summary_stats.get(
                        "intervals_pruned_functions", 0),
                    edges=self.summary_stats.get(
                        "intervals_infeasible_edges", 0)))
            lines.append(
                "octagons: {pruned} functions with relational-only pruning "
                "({edges} edges pruned)".format(
                    pruned=self.summary_stats.get(
                        "octagons_pruned_functions", 0),
                    edges=self.summary_stats.get(
                        "octagons_infeasible_edges", 0)))
        for name in sorted(self.analyses):
            report = self.analyses[name]
            lines.append("")
            lines.append(f"-- {name} --")
            for key in sorted(report.metrics):
                lines.append(f"  {key:>32}: {report.metrics[key]}")
            lines.append(f"  findings: {len(report.findings)}")
            for finding in report.findings:
                where = f"{finding['file']}:{finding['line']}" if finding["file"] else "-"
                lines.append(f"    {where} [{finding['kind']}] "
                             f"{finding['function']}: {finding['message']}")
        lines.append("")
        lines.append(f"total findings: {self.finding_count} "
                     f"({self.elapsed_seconds:.2f}s)")
        return "\n".join(lines)


class AnalysisEngine:
    """Parse once, analyze many: the shared-work front end for all checkers."""

    def __init__(self,
                 files: tuple[CorpusFile, ...] = KERNEL_FILES,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 cache: ArtifactCache | None = None,
                 cache_dir: str | None = None,
                 cache_max_mb: float | None = None,
                 tolerant: bool = False,
                 deputy_options: DeputyOptions | None = None,
                 runtime_checks: RuntimeCheckSet | None = None) -> None:
        self.files = tuple(files)
        self.defines = dict(defines or {})
        self.precision = precision
        self.cache = (cache if cache is not None
                      else ArtifactCache(cache_dir, max_mb=cache_max_mb))
        #: Tolerant mode isolates frontend errors per translation unit: the
        #: broken file becomes a structured ``diagnostics`` finding and every
        #: other unit is still analyzed.  Strict mode (the default) raises.
        self.tolerant = tolerant
        self.registry = make_registry(deputy_options, runtime_checks)
        #: Whether the last summary solve was served from the cache; None
        #: until a solve is attempted (e.g. artifacts were memory-cached).
        self._summary_cache_hit: bool | None = None
        #: Same flag for the constant-facts artifact, plus its solve time
        #: (0.0 on a cache hit; excluded from deterministic report fields).
        self._consts_cache_hit: bool | None = None
        self._consts_solve_seconds: float = 0.0
        #: The run's persistent executor (parallel runs only).  Created by
        #: the first phase that schedules work, reused by every later phase
        #: of the same run, closed when the run finishes.
        self._executor = None

    # -- shared artifacts ---------------------------------------------------

    def program_key(self) -> str:
        kind = "program-tolerant" if self.tolerant else "program"
        return self.cache.content_key(kind, files=self.files,
                                      defines=self.defines)

    def program(self) -> Program:
        """The parsed, linked corpus — built at most once per content key.

        Every run parses in this process, one unit after another against
        the shared macro and type tables; parallel runs fork their pool
        only after points-to (:meth:`_ensure_executor`).
        """
        if self.tolerant:
            return self._tolerant_parse()[0]
        return self.cache.get_or_build(
            self.program_key(), lambda: parse_corpus(self.files, self.defines))

    def _tolerant_parse(self) -> "tuple[Program, tuple[ParseDiagnostic, ...]]":
        return self.cache.get_or_build(
            self.program_key(),
            lambda: parse_corpus_tolerant(self.files, self.defines))

    def parse_diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        """Per-file frontend errors (tolerant mode only; else empty)."""
        if not self.tolerant:
            return ()
        return self._tolerant_parse()[1]

    def fresh_program(self) -> Program:
        """A private, mutation-safe copy of the parsed corpus.

        Instrumenting builds (Deputy/CCount rewriting, the hbench harness)
        mutate the AST in place; they get a deep copy of the cached parse
        instead of re-parsing the corpus.
        """
        return copy.deepcopy(self.program())

    def fresh_kernel_program(self, config=None) -> Program | None:
        """A mutation-safe parse for a kernel build, or None on mismatch.

        Kernel builds parse ``KERNEL_FILES`` with ``config.defines``; this
        engine's cached parse can only substitute for that when its own file
        set and defines match.  Returning ``None`` tells ``build_kernel`` to
        parse from scratch rather than silently build the wrong corpus.
        """
        defines = dict(getattr(config, "defines", None) or {})
        if self.files == KERNEL_FILES and defines == self.defines:
            return self.fresh_program()
        return None

    def kernel_program_factory(self):
        """A ``program_factory`` for the hbench/boot path (see above)."""
        return self.fresh_kernel_program

    def artifacts(self, jobs: int = 1) -> SharedArtifacts:
        """Shared artifacts for the configured precision (memory-cached).

        The constant facts and summaries come from :meth:`_phase_solver`:
        the facts solved directly when ``jobs`` is 1, or as per-unit tasks
        on a ``jobs``-worker executor otherwise (merged in program order);
        the summaries solved in the parent either way.
        """
        key = self.cache.content_key(
            "artifacts", files=self.files, defines=self.defines,
            extra={"precision": self.precision.name})
        return self.cache.get_or_build(
            key,
            lambda: build_shared_artifacts(
                self.program(), self.precision,
                phase_solver=lambda program, graph, pointsto, condensation:
                self._phase_solver(program, graph, pointsto, condensation,
                                   jobs)),
            persist=False)

    def _ensure_executor(self, program, graph, pointsto, jobs: int):
        """The run's persistent ``jobs``-worker executor, forked on first use.

        Workers fork *after* points-to resolution (``resolve`` mutates the
        call graph in place), so the handler's inherited view of the graph
        is the final one every phase agrees on.
        """
        if self._executor is None:
            handler = _make_steal_handler(program, graph, pointsto,
                                          self.precision, self.registry)
            self._executor = WorkStealingExecutor(jobs, handler)
        return self._executor

    def _close_executor(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def _phase_solver(self, program, graph, pointsto, condensation,
                      jobs: int):
        """Solve (or load) the constant facts and the summaries.

        Both artifacts are cached under keys computed here and nowhere
        else.  The consts key covers the parsed sources and the
        abstract-domain set, not points-to precision, so engines at
        different precisions share one entry, while flipping the domain
        product invalidates persisted facts instead of misreading them.
        The summaries key mixes in the call-graph fingerprint, so any change
        to the corpus or to the points-to resolution invalidates persisted
        summaries.  A warm run loads both without solving anything.

        With ``jobs`` at 1 the facts are solved by a direct call.
        Otherwise each translation unit with functions is one ``consts``
        task on the run's executor, and the results merge in program order.
        Either way the summaries are then solved in the parent by
        :func:`solve_summaries`, seeded with the facts so they are taken
        over the pruned CFGs: one SCC's fixpoint costs less than shipping
        its callee summaries to a worker.  So every path builds
        byte-identical artifacts.
        """
        consts_key = self.cache.content_key(
            "consts", files=self.files, defines=self.defines,
            extra={"domains": domain_fingerprint(DEFAULT_DOMAINS)})
        summaries_key = self.cache.content_key(
            "summaries", files=self.files, defines=self.defines,
            extra={"precision": self.precision.name,
                   "callgraph": callgraph_fingerprint(graph)})
        # A hit is a value that loaded; anything else is solved again.
        consts = self.cache.lookup(consts_key)
        summaries = self.cache.lookup(summaries_key)
        self._consts_cache_hit = consts is not None
        self._summary_cache_hit = summaries is not None

        if consts is None and jobs < 2:
            started = time.perf_counter()
            consts = solve_program_facts(program)
            self._consts_solve_seconds = time.perf_counter() - started
            self.cache.put(consts_key, consts)
        elif consts is None:
            executor = self._ensure_executor(program, graph, pointsto, jobs)
            tasks = [Task(id=f"consts:{filename}", kind="consts",
                          payload=functions)
                     for filename, functions in unit_function_map(program).items()
                     if functions]
            results = executor.run(tasks)
            merged: dict = {}
            for task in tasks:
                merged.update(results[task.id])
            consts = self.cache.put(consts_key, {
                name: merged[name]
                for name, _ in program.functions_subset(None)
                if name in merged})
            self._consts_solve_seconds = sum(
                busy for task_id, busy in executor.stats.task_busy.items()
                if task_id.startswith("consts:"))
        if summaries is None:
            summaries = self.cache.put(
                summaries_key,
                solve_summaries(program, graph, condensation, consts=consts))
        return consts, summaries

    # -- running ------------------------------------------------------------

    def resolve_analyses(self, analyses: Iterable[str] | str | None) -> list[str]:
        """Normalize an analysis selection ('all', CSV, or a list) to names."""
        if analyses is None or analyses == "all":
            return [name for name in ANALYSIS_ORDER if name in self.registry]
        if isinstance(analyses, str):
            analyses = [part.strip() for part in analyses.split(",") if part.strip()]
        names: list[str] = []
        for name in analyses:
            if name == "all":
                names.extend(n for n in ANALYSIS_ORDER if n in self.registry)
                continue
            if name not in self.registry:
                known = ", ".join(sorted(self.registry))
                raise KeyError(f"unknown analysis {name!r} (known: {known})")
            names.append(name)
        seen: set[str] = set()
        return [n for n in names if not (n in seen or seen.add(n))]

    def _build_tasks(self, names: list[str],
                     artifacts: SharedArtifacts) -> list[_Task]:
        tasks: list[_Task] = []
        for name in names:
            adapter = self.registry[name]
            if adapter.per_unit:
                index = 0
                for functions in artifacts.unit_functions.values():
                    if not functions:
                        continue
                    tasks.append((name, index, functions))
                    index += 1
            else:
                tasks.append((name, 0, None))
        return tasks

    def _run_shards_steal(self, artifacts: SharedArtifacts,
                          tasks: "list[_Task]", jobs: int) -> list:
        """Run the checker shards on the run's persistent executor.

        The merged artifacts are broadcast once per worker (inbox FIFO
        order guarantees every shard task dispatched afterwards sees them);
        per-unit shards then ship only ``(analysis, index, functions)``.
        Whole-program analyses run inline in the parent, overlapping the
        pool instead of serializing behind it.
        """
        executor = self._ensure_executor(artifacts.program, artifacts.graph,
                                         artifacts.pointsto, jobs)
        executor.broadcast("artifacts", {
            "consts": artifacts.consts,
            "condensation": artifacts.condensation,
            "summaries": artifacts.summaries,
            "blocking": artifacts.blocking,
            "irq_handlers": artifacts.irq_handlers,
            "error_returning": artifacts.error_returning,
            "annotations": artifacts.annotations,
        })
        steal_tasks: list[Task] = []
        parent_tasks = []
        for name, index, functions in tasks:
            task_id = f"shard:{name}:{index}"
            if functions is None:
                parent_tasks.append(
                    (task_id,
                     lambda name=name, index=index:
                     (name, index,
                      self.registry[name].run_shard(artifacts, None))))
            else:
                steal_tasks.append(Task(id=task_id, kind="shard",
                                        payload=(name, index, functions)))
        return list(executor.run(steal_tasks, parent_tasks).values())

    @staticmethod
    def _perf_payload(phases: dict, executor) -> dict:
        """The report's timing/scheduler block (normalized out of identity
        comparisons alongside ``cache_stats``)."""
        payload = {"phases": {key: round(value, 4)
                              for key, value in phases.items()}}
        scheduler_stats = {"mode": "serial"}
        if executor is not None:
            scheduler_stats["mode"] = "work-steal"
            scheduler_stats.update(executor.stats.to_dict())
            busy = {"consts": 0.0, "shard": 0.0}
            for task_id, seconds in executor.stats.task_busy.items():
                kind = task_id.split(":", 1)[0]
                if kind in busy:
                    busy[kind] += seconds
            scheduler_stats["busy_by_phase"] = {
                key: round(value, 4) for key, value in busy.items()}
        payload["scheduler"] = scheduler_stats
        return payload

    def run(self, analyses: Iterable[str] | str | None = None,
            jobs: int = 1) -> EngineReport:
        """Run the selected analyses over the corpus and merge their reports.

        The path is picked from what the run can observe, once, by
        :func:`worker_count`: ``jobs=0`` means every usable CPU; one worker,
        or a platform without ``fork``, means direct serial calls; anything
        else means ``min(jobs, max(2, usable CPUs))`` workers on one
        persistent work-stealing executor that solves per-unit consts and
        checker shards, while the parent solves the summaries in between.
        That executor is the run's one pool: every path parses serially in
        this process first.  Every path produces a byte-identical report.
        """
        workers = worker_count(jobs)
        start = time.perf_counter()
        phases: dict[str, float] = {}
        names = self.resolve_analyses(analyses)
        try:
            step = time.perf_counter()
            self.program()
            phases["parse"] = time.perf_counter() - step
            step = time.perf_counter()
            artifacts = self.artifacts(jobs=workers)
            phases["artifacts"] = time.perf_counter() - step
            tasks = self._build_tasks(names, artifacts)
            step = time.perf_counter()
            if workers > 1:
                results = self._run_shards_steal(artifacts, tasks, workers)
            else:
                results = [(name, index,
                            self.registry[name].run_shard(artifacts, functions))
                           for name, index, functions in tasks]
            phases["checkers"] = time.perf_counter() - step
        finally:
            executor = self._executor
            self._close_executor()

        shards: dict[str, list[tuple[int, dict]]] = {name: [] for name in names}
        for name, index, payload in results:
            shards[name].append((index, payload))

        parallel = executor is not None and executor.parallel
        report = EngineReport(
            corpus_files=[f.filename for f in self.files],
            precision=self.precision.name.lower(),
            jobs=workers if parallel else 1,
            parallel=parallel,
        )
        for name in names:
            payloads = [payload for _, payload in sorted(shards[name])]
            report.analyses[name] = self.registry[name].merge(artifacts, payloads)
        diagnostics = self.parse_diagnostics()
        if diagnostics:
            report.analyses["diagnostics"] = diagnostics_report(diagnostics)
        report.elapsed_seconds = time.perf_counter() - start
        report.cache_stats = {"hits": self.cache.hits,
                              "misses": self.cache.misses,
                              "disk_hits": self.cache.disk_hits,
                              "evictions": self.cache.evictions,
                              "const_solve_ms": round(
                                  self._consts_solve_seconds * 1000, 3)}
        report.summary_stats = summary_stats(
            artifacts, summary_cache_hit=self._summary_cache_hit is not False,
            consts_cache_hit=self._consts_cache_hit is not False)
        report.perf = self._perf_payload(phases, executor)
        return report
