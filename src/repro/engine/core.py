"""The batch analysis engine: a front end over one incremental analyzer.

:class:`AnalysisEngine` holds one
:class:`~repro.service.incremental.IncrementalAnalyzer`, built with the
engine's own analysis registry, and :meth:`AnalysisEngine.run` is one pass
of it over the selected analyses: a cold pass, or with ``cache_dir`` a pass
over the rows ``serve --store-dir`` reads and writes.  Every pass parses
and solves the summaries in this process; at ``jobs`` > 1 it forks one
work-stealing pool after points-to for the per-unit facts and shards.  Both
paths merge through the same code, so their reports are byte-identical.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Iterable

from ..blockstop.pointsto import Precision
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..deputy.checker import DeputyOptions
from ..kernel.build import ParseDiagnostic
from ..kernel.corpus import KERNEL_FILES, CorpusFile
from ..machine.program import Program
from .analyses import ANALYSIS_ORDER, AnalysisReport, finding_sort_key
from .artifacts import SharedArtifacts

# Names kept for the repository benchmark's layer tracer: ``LAYER_HOOKS``
# in ``perfbench/tracing.py`` wraps them here, and ``Tracer.install`` fails
# on a name it cannot find.  The engine calls none of them since a run is
# an analyzer pass; the change that moves the tracer onto a span API
# (ROADMAP.md, *One span API*, step 2) deletes them.
from ..dataflow.domains import solve_program_facts  # noqa: F401
from ..dataflow.interproc import solve_summaries  # noqa: F401
from ..kernel.build import parse_corpus  # noqa: F401


def summary_stats(artifacts: SharedArtifacts, summary_cache_hit: bool,
                  consts_cache_hit: bool) -> dict:
    """Condensation/summary metrics for the report (and the CI bench).

    The analyzer builds each pass's ``summary_stats`` here, passing whether
    the pass solved no SCC and no constant facts (a cache hit); so does the
    test suite's from-scratch reference report.

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
    """Parse once, analyze many: the batch front end for all checkers.

    ``cache_dir`` opens a :class:`~repro.service.store.PersistentStore`
    there (LRU-bounded by ``cache_max_mb``), the format and the rows of
    ``serve --store-dir``, so one directory serves both.  In strict mode,
    the default, a corpus with a unit that fails to parse or link raises
    that unit's :class:`~repro.minic.errors.MiniCError`; ``tolerant`` mode
    reports it as a ``diagnostics`` finding and analyzes the other units.
    """

    def __init__(self,
                 files: tuple[CorpusFile, ...] = KERNEL_FILES,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 cache_dir: str | None = None,
                 cache_max_mb: float | None = None,
                 tolerant: bool = False,
                 deputy_options: DeputyOptions | None = None,
                 runtime_checks: RuntimeCheckSet | None = None) -> None:
        # Imported here: repro.service imports this module when it loads.
        from ..service.incremental import IncrementalAnalyzer
        from ..service.store import PersistentStore

        self.files = tuple(files)
        self.defines = dict(defines or {})
        self.precision = precision
        self.tolerant = tolerant
        self.analyzer = IncrementalAnalyzer(
            files=self.files, defines=self.defines, precision=precision,
            deputy_options=deputy_options, runtime_checks=runtime_checks,
            store=(PersistentStore(cache_dir, max_mb=cache_max_mb)
                   if cache_dir is not None else None))
        #: The analyses every pass runs: the analyzer's registry itself.
        self.registry = self.analyzer.registry

    # -- shared artifacts ---------------------------------------------------

    def artifacts(self) -> SharedArtifacts:
        """The last pass's shared artifacts; a first call runs a pass over
        no analyses to build them."""
        if self.analyzer.artifacts is None:
            self.analyzer.analyze(analyses=())
        self._raise_if_strict()
        return self.analyzer.artifacts

    def program(self) -> Program:
        """The parsed, linked corpus: the same object for every pass over
        these files."""
        return self.artifacts().program

    def parse_diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        """Per-file frontend errors (tolerant mode only; else empty)."""
        self.artifacts()
        return self.analyzer.diagnostics

    def _raise_if_strict(self) -> None:
        if not self.tolerant and self.analyzer.diagnostics:
            raise self.analyzer.diagnostics[0].error()

    def fresh_program(self) -> Program:
        """A private, mutation-safe copy of the parsed corpus.

        Instrumenting builds (Deputy/CCount rewriting, the hbench harness)
        mutate the AST in place; they get a deep copy of the shared parse
        instead of re-parsing the corpus.
        """
        return copy.deepcopy(self.program())

    def fresh_kernel_program(self, config=None) -> Program | None:
        """A mutation-safe parse for a kernel build, or None on mismatch.

        Kernel builds parse ``KERNEL_FILES`` with ``config.defines``; this
        engine's parse can only substitute for that when its own file set
        and defines match.  Returning ``None`` tells ``build_kernel`` to
        parse from scratch rather than silently build the wrong corpus.
        """
        defines = dict(getattr(config, "defines", None) or {})
        if self.files == KERNEL_FILES and defines == self.defines:
            return self.fresh_program()
        return None

    def kernel_program_factory(self):
        """A ``program_factory`` for the hbench/boot path (see above)."""
        return self.fresh_kernel_program

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

    def run(self, analyses: Iterable[str] | str | None = None,
            jobs: int = 1) -> EngineReport:
        """Run the selected analyses over the corpus and merge their reports:
        one analyzer pass, whose pool ``jobs`` sizes
        (:func:`~repro.engine.scheduler.worker_count`; 0 means every usable
        CPU, 1 or no ``fork`` means serial).  Every path produces a
        byte-identical report.
        """
        report = self.analyzer.analyze(
            analyses=self.resolve_analyses(analyses), jobs=jobs)
        self._raise_if_strict()
        return report
