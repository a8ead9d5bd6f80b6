"""Engine adapters for every registered analysis.

Each adapter maps one of the repro's checkers onto the engine's shared
artifacts and a common report shape:

* ``run_shard(artifacts, functions)`` does the actual checking.  For
  analyses whose work is per-function (``per_unit = True``) the engine calls
  it once per translation unit with that unit's function list, which is how
  the parallel mode shards the corpus; whole-program analyses get a single
  shard with ``functions=None``.  Shard payloads are plain picklable dicts so
  they can cross a ``multiprocessing`` boundary.
* ``merge(artifacts, payloads)`` combines the shard payloads into the final
  :class:`AnalysisReport`.  Serial and parallel runs share this code path,
  which is what makes their results identical by construction.

Findings are normalized dicts (``analysis``, ``kind``, ``function``,
``file``, ``line``, ``message``) so reports can be merged, diffed, sorted
and serialized to JSON without caring which checker produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any

from ..analyses.errcheck import check_error_returns
from ..analyses.lockcheck import (
    LockAcquisition,
    LockFacts,
    LockLeak,
    check_locks,
    derive_report,
)
from ..analyses.stackcheck import analyse_stack
from ..blockstop.checker import (
    AtomicCallSite,
    BlockStopChecker,
    BlockStopResult,
    check_violations,
)
from ..blockstop.runtime_checks import RuntimeCheckSet
from ..ccount.delayed_free import (
    count_delayed_scopes_in,
    count_pointer_nullouts_in,
    count_rtti_sites_in,
)
from ..ccount.instrument import CCountInstrumenter
from ..ccount.typeinfo import build_typeinfo
from ..deputy.checker import DeputyOptions, ObligationStatus, check_program
from ..minic import ast_nodes as minic_ast
from ..minic.errors import SourceLocation
from .artifacts import SharedArtifacts

Finding = dict  # normalized: analysis, kind, function, file, line, message


def make_finding(analysis: str, kind: str, function: str, location: Any,
                 message: str) -> Finding:
    filename = getattr(location, "filename", "") or ""
    line = getattr(location, "line", 0) or 0
    return {"analysis": analysis, "kind": kind, "function": function,
            "file": filename, "line": int(line), "message": message}


def finding_sort_key(finding: Finding) -> tuple:
    return (finding["file"], finding["line"], finding["function"],
            finding["kind"], finding["message"])


@dataclass
class AnalysisReport:
    """One analysis's merged result: findings plus summary metrics."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "findings": self.findings,
                "metrics": self.metrics}

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisReport":
        return cls(name=payload["name"], findings=list(payload.get("findings", [])),
                   metrics=dict(payload.get("metrics", {})))


class ShardReads(Enum):
    """What a shard reads about functions outside its unit.

    The incremental service folds exactly this into the shard's cache key,
    next to the unit's own location hashes and the globals fingerprint, so
    an edit elsewhere re-runs the shard only when what it reads moved.
    """

    #: The SCC keys of the unit's functions.  Each covers its members'
    #: bodies plus the summary and the header annotations of every callee
    #: outside the component: all a shard reads through
    #: ``summaries.get(callee)``, since a called name is always a call-graph
    #: out-edge.  So a callee's body edit that keeps its summary and header
    #: re-runs no caller's shard.
    CALLEE_SCC_KEYS = auto()
    #: Only the signatures (``Program.function_type``) of the names the
    #: unit's bodies reference.
    REFERENCED_SIGNATURES = auto()
    #: Nothing: the shard depends on the unit's own bodies alone.
    NOTHING = auto()
    #: For a whole-program shard: the call graph's nodes and edges and
    #: every function's summary, nothing located.  The only reads a
    #: whole-program shard may declare.
    CALL_GRAPH_AND_SUMMARIES = auto()


class EngineAnalysis:
    """Base adapter: one registered analysis over the shared artifacts."""

    name = "base"
    #: Whether run_shard can be restricted to a translation unit's functions.
    per_unit = False
    #: What a shard reads about functions outside its unit.
    shard_reads = ShardReads.CALLEE_SCC_KEYS
    #: The :class:`SharedArtifacts` fields ``merge`` reads besides the
    #: payloads: the incremental service carries the last merged report
    #: while the payloads are equal and these are the same objects.
    merge_reads: tuple[str, ...] = ()

    def run_shard(self, artifacts: SharedArtifacts,
                  functions: list[str] | None) -> dict:
        raise NotImplementedError

    def merge(self, artifacts: SharedArtifacts,
              payloads: list[dict]) -> AnalysisReport:
        raise NotImplementedError

    def shard_salt(self, artifacts: SharedArtifacts) -> str:
        """Extra content folded into this analysis's incremental shard keys.

        Override when ``run_shard`` consumes a *global* artifact that body
        hashes and the declared ``shard_reads`` don't cover (e.g. errcheck's
        error-returning set).  The empty default means the standard key
        components fully determine the shard payload.
        """
        return ""


class DeputyAnalysis(EngineAnalysis):
    """Deputy's hybrid type checking (static pass; no rewriting)."""

    name = "deputy"
    per_unit = True
    #: A shard reads its own bodies, its own functions' facts, the globals,
    #: and ``Program.function_type`` of identifiers its bodies name (types
    #: of names and calls, call contracts) — never another function's
    #: body, facts or summary.
    shard_reads = ShardReads.REFERENCED_SIGNATURES

    def __init__(self, options: DeputyOptions | None = None) -> None:
        self.options = options or DeputyOptions()

    def run_shard(self, artifacts, functions):
        results = check_program(artifacts.program, self.options,
                                functions=functions,
                                env_cache=artifacts.type_envs,
                                facts=artifacts.consts)
        payload = {"functions": {}, "findings": []}
        for name, result in results.items():
            discharges = {"interval": 0, "relational": 0}
            for obligation in result.obligations:
                if obligation.status is ObligationStatus.STATIC:
                    if obligation.detail == "interval-bounded index":
                        discharges["interval"] += 1
                    elif obligation.detail == "relational-bounded index":
                        discharges["relational"] += 1
            payload["functions"][name] = {
                "trusted": result.trusted,
                "counts": {status.name.lower(): result.count(status)
                           for status in ObligationStatus},
                "discharges": discharges,
            }
            for error in result.errors:
                payload["findings"].append(make_finding(
                    self.name, "static-error", name, error.location, error.message))
        return payload

    def merge(self, artifacts, payloads):
        report = AnalysisReport(name=self.name)
        totals = {status.name.lower(): 0 for status in ObligationStatus}
        discharge_totals = {"interval": 0, "relational": 0}
        trusted_functions = 0
        checked = 0
        for payload in payloads:
            report.findings.extend(payload["findings"])
            for info in payload["functions"].values():
                checked += 1
                trusted_functions += 1 if info["trusted"] else 0
                for key, value in info["counts"].items():
                    totals[key] += value
                for key, value in info.get("discharges", {}).items():
                    discharge_totals[key] += value
        report.findings.sort(key=finding_sort_key)
        report.metrics = {
            "functions_checked": checked,
            "trusted_functions": trusted_functions,
            "obligations_total": sum(totals.values()),
            **{f"obligations_{key}": value for key, value in totals.items()},
            "checks_interval": discharge_totals["interval"],
            "checks_relational": discharge_totals["relational"],
        }
        return report


class BlockStopAnalysis(EngineAnalysis):
    """BlockStop: no blocking calls while interrupts are disabled.

    A shard scans its unit's functions for atomic call sites; the merge
    checks their union against the call graph and the blocking set.
    """

    name = "blockstop"
    per_unit = True
    #: A unit's scan reads its own bodies and facts and its callees'
    #: summaries (their IRQ deltas); the IRQ-handler set and the blocking
    #: seeds are in the salt.
    shard_reads = ShardReads.CALLEE_SCC_KEYS
    merge_reads = ("graph", "blocking", "irq_handlers", "precision")

    def __init__(self, runtime_checks: RuntimeCheckSet | None = None) -> None:
        self.runtime_checks = runtime_checks

    def shard_salt(self, artifacts):
        # Which functions start atomic, and how a blocking_if_wait call
        # site is classified (its callee's seeds, then its flags).
        blocking = artifacts.blocking
        parts = [",".join(sorted(artifacts.irq_handlers)),
                 ",".join(sorted(blocking.conditional_seeds)),
                 ",".join(sorted(blocking.seeds))]
        return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:32]

    def run_shard(self, artifacts, functions):
        result = BlockStopChecker(artifacts, self.runtime_checks).scan(functions)
        return {"sites": [
            {"caller": site.caller, "callee": site.callee,
             "file": site.location.filename, "line": site.location.line,
             "column": site.location.column, "indirect": site.indirect,
             "conditional": site.conditional_blocks}
            for site in result.atomic_call_sites]}

    def merge(self, artifacts, payloads):
        result = BlockStopResult(
            graph=artifacts.graph, blocking=artifacts.blocking,
            precision=artifacts.precision,
            runtime_checks=self.runtime_checks or RuntimeCheckSet(),
            irq_handlers=set(artifacts.irq_handlers))
        result.atomic_call_sites = [
            AtomicCallSite(caller=raw["caller"], callee=raw["callee"],
                           location=SourceLocation(raw["file"], raw["line"],
                                                   raw["column"]),
                           indirect=raw["indirect"],
                           conditional_blocks=raw["conditional"])
            for payload in payloads for raw in payload["sites"]]
        check_violations(result)
        findings = sorted(
            (make_finding(self.name, "blocking-in-atomic-context",
                          violation.caller, violation.location,
                          violation.describe())
             for violation in result.reported), key=finding_sort_key)
        return AnalysisReport(name=self.name, findings=findings, metrics={
            "functions_analyzed": len(result.graph),
            "blocking_functions": len(result.blocking.may_block),
            "atomic_call_sites": len(result.atomic_call_sites),
            "irq_handlers": len(result.irq_handlers),
            "violations_reported": len(result.reported),
            "violations_silenced": len(result.silenced),
            "precision": artifacts.precision.name.lower(),
        })


class ErrcheckAnalysis(EngineAnalysis):
    """Error-code checking at call sites (§3.1)."""

    name = "errcheck"
    per_unit = True
    merge_reads = ("error_returning",)

    def shard_salt(self, artifacts):
        # The whole error-returning set reaches every shard; callee SCC keys
        # already cover the summaries of the functions a unit calls, but
        # keying on the full set keeps the cache sound against any use of
        # the rest.
        joined = ",".join(sorted(artifacts.error_returning))
        return hashlib.sha256(joined.encode()).hexdigest()[:32]

    def run_shard(self, artifacts, functions):
        report = check_error_returns(artifacts, functions)
        findings = [make_finding(self.name, "unchecked-error-return",
                                 call.caller, call.location,
                                 f"result of {call.callee}() {call.reason}")
                    for call in report.unchecked]
        return {"findings": findings, "checked_calls": report.checked_calls,
                "passed_to_callee": report.passed_to_callee}

    def merge(self, artifacts, payloads):
        report = AnalysisReport(name=self.name)
        checked = 0
        passed = 0
        for payload in payloads:
            report.findings.extend(payload["findings"])
            checked += payload["checked_calls"]
            passed += payload.get("passed_to_callee", 0)
        report.findings.sort(key=finding_sort_key)
        report.metrics = {
            "error_returning_functions": len(artifacts.error_returning),
            "checked_calls": checked,
            "passed_to_callee": passed,
            "unchecked_calls": len(report.findings),
        }
        return report


class LockcheckAnalysis(EngineAnalysis):
    """Hybrid lock-safety checking (§3.1): ordering + IRQ discipline."""

    name = "lockcheck"
    per_unit = True
    merge_reads = ("irq_handlers",)

    @staticmethod
    def _acq_payload(acq: LockAcquisition) -> dict:
        return {"function": acq.function, "lock": acq.lock,
                "irqsave": acq.irqsave, "held_before": list(acq.held_before),
                "file": acq.location.filename, "line": acq.location.line,
                "column": acq.location.column, "reacquired": acq.reacquired,
                "via_callee": acq.via_callee}

    @staticmethod
    def _acq_restore(raw: dict) -> LockAcquisition:
        return LockAcquisition(
            function=raw["function"], lock=raw["lock"],
            irqsave=raw["irqsave"], held_before=tuple(raw["held_before"]),
            location=SourceLocation(raw.get("file", "<unknown>"),
                                    raw.get("line", 0), raw.get("column", 0)),
            reacquired=raw.get("reacquired", False),
            via_callee=raw.get("via_callee", ""))

    def run_shard(self, artifacts, functions):
        facts = check_locks(artifacts, functions)
        return {
            "acquisitions": [self._acq_payload(acq)
                             for acq in facts.acquisitions],
            "interproc_acquires": [self._acq_payload(acq)
                                   for acq in facts.interproc_acquires],
            "leaks": [{"function": leak.function, "lock": leak.lock,
                       "file": leak.location.filename,
                       "line": leak.location.line,
                       "column": leak.location.column,
                       "via_callee": leak.via_callee}
                      for leak in facts.leaks],
        }

    def merge(self, artifacts, payloads):
        facts = LockFacts(
            acquisitions=[self._acq_restore(raw) for payload in payloads
                          for raw in payload["acquisitions"]],
            interproc_acquires=[
                self._acq_restore(raw) for payload in payloads
                for raw in payload.get("interproc_acquires", [])],
            leaks=[
                LockLeak(function=raw["function"], lock=raw["lock"],
                         location=SourceLocation(raw.get("file", "<unknown>"),
                                                 raw.get("line", 0),
                                                 raw.get("column", 0)),
                         via_callee=raw.get("via_callee", ""))
                for payload in payloads for raw in payload.get("leaks", [])])
        lock_report = derive_report(facts, artifacts.irq_handlers)
        report = AnalysisReport(name=self.name)
        for first, second in lock_report.order_violations:
            report.findings.append(make_finding(
                self.name, "lock-order", "", None,
                f"inconsistent lock order: {first} -> {second} and "
                f"{second} -> {first} both observed"))
        for acq in lock_report.irq_violations:
            report.findings.append(make_finding(
                self.name, "irq-discipline", acq.function, acq.location,
                f"{acq.lock} is taken in interrupt context but acquired with "
                f"plain spin_lock in {acq.function}"))
        for acq in lock_report.double_acquires:
            if acq.via_callee:
                report.findings.append(make_finding(
                    self.name, "double-acquire", acq.function, acq.location,
                    f"{acq.lock} is held in {acq.function} when calling "
                    f"{acq.via_callee}, which may acquire it again "
                    f"(interprocedural self-deadlock)"))
            else:
                report.findings.append(make_finding(
                    self.name, "double-acquire", acq.function, acq.location,
                    f"{acq.lock} is acquired while already held in "
                    f"{acq.function} (self-deadlock on a non-recursive lock)"))
        for leak in lock_report.leaked_returns:
            origin = (f" (leaked through {leak.via_callee})"
                      if leak.via_callee else "")
            report.findings.append(make_finding(
                self.name, "returns-with-lock-held", leak.function,
                leak.location,
                f"{leak.function} may return with {leak.lock} still held on "
                f"some path{origin}"))
        report.findings.sort(key=finding_sort_key)
        report.metrics = {
            "acquisitions": len(lock_report.acquisitions),
            "order_pairs": len(lock_report.order_pairs),
            "order_violations": len(lock_report.order_violations),
            "irq_violations": len(lock_report.irq_violations),
            "double_acquires": len(lock_report.double_acquires),
            "leaked_returns": len(lock_report.leaked_returns),
            "irq_context_locks": len(lock_report.irq_context_locks),
        }
        return report


class StackcheckAnalysis(EngineAnalysis):
    """Stack-depth bounding over the shared call graph (§3.1).

    Deliberately uses the points-to-*resolved* graph (the paper reuses the
    BlockStop call graph, indirect edges included): a direct-only graph
    would under-estimate the worst case and miss recursion closed through a
    function pointer.  The ``call_graph`` metric records this basis.
    """

    name = "stackcheck"
    per_unit = False
    #: Frame sizes and stack depths come from the summaries, recursion
    #: from the condensation of the graph; no finding carries a location.
    shard_reads = ShardReads.CALL_GRAPH_AND_SUMMARIES

    def run_shard(self, artifacts, functions):
        stack_report = analyse_stack(artifacts)
        findings = [make_finding(self.name, "recursion-needs-runtime-check",
                                 name, None,
                                 f"{name} is (mutually) recursive; stack depth "
                                 "needs a run-time check")
                    for name in sorted(stack_report.recursive_functions)]
        if not stack_report.fits:
            findings.append(make_finding(
                self.name, "stack-overflow-risk", stack_report.deepest_chain[0]
                if stack_report.deepest_chain else "", None,
                f"worst-case stack {stack_report.worst_case} bytes exceeds "
                f"{stack_report.stack_limit}; deepest chain: "
                + " -> ".join(stack_report.deepest_chain)))
        return {
            "findings": findings,
            "metrics": {
                "worst_case_bytes": stack_report.worst_case,
                "stack_limit_bytes": stack_report.stack_limit,
                "fits": stack_report.fits,
                "recursive_functions": len(stack_report.recursive_functions),
                "deepest_chain": list(stack_report.deepest_chain),
                "call_graph": "pointsto_resolved",
            },
        }

    def merge(self, artifacts, payloads):
        payload = payloads[0]
        findings = sorted(payload["findings"], key=finding_sort_key)
        return AnalysisReport(name=self.name, findings=findings,
                              metrics=payload["metrics"])


class CCountAnalysis(EngineAnalysis):
    """CCount instrumentation planning (counts only; shared AST untouched).

    The rewriter path-copies (:class:`repro.minic.visitor.Transformer`):
    instrumenting a function returns a twin that shares every untouched
    subtree with the linked definition, so planning runs on the shared
    program itself, with its cached syntax records, and copies only the
    paths it rewrites.  Shardable per translation unit: every census
    counter is a per-function sum (a function's null-outs depend only on
    its own body), and the type-layout registry is a pure function of the
    shared program, built by a shard only when a bulk-call rewrite reads it
    and counted once at merge.
    """

    name = "ccount"
    per_unit = True
    #: Purely intraprocedural — an edit to a callee never changes this
    #: analysis's result for the caller's unit.
    shard_reads = ShardReads.NOTHING
    #: The census of the units without functions and the type layouts.
    merge_reads = ("program", "unit_functions")

    def run_shard(self, artifacts, functions):
        program = artifacts.program
        if functions is None:
            units = list(program.units)
        else:
            units = [unit for unit in program.units
                     if artifacts.unit_functions.get(unit.filename) == functions]
        instrumenter = CCountInstrumenter(program)
        # The census counters run on the *instrumented* twins, matching the
        # established harness census (build_conversion_report): the rewriter
        # turns plain null-out assignments into __ccount_ptr_write calls, so
        # counting before instrumentation would report different numbers for
        # the same metric names.
        twins: list[minic_ast.FuncDef] = []
        top_level: list[minic_ast.Node] = []
        for unit in units:
            for decl in unit.decls:
                if isinstance(decl, minic_ast.FuncDef):
                    twins.append(instrumenter.instrument_function(decl))
                else:
                    top_level.append(decl)
        result = instrumenter.result
        return {
            "findings": [],
            "metrics": {
                "pointer_writes_instrumented": result.pointer_writes_instrumented,
                "pointer_writes_skipped_local": result.pointer_writes_skipped_local,
                "bulk_calls_converted": result.bulk_calls_converted,
                "rtti_sites": (count_rtti_sites_in(twins)
                               + count_rtti_sites_in(top_level)),
                "pointer_nullouts": count_pointer_nullouts_in(twins),
                "delayed_free_scopes": (count_delayed_scopes_in(twins)
                                        + count_delayed_scopes_in(top_level)),
            },
        }

    def merge(self, artifacts, payloads):
        program = artifacts.program
        totals = {
            "pointer_writes_instrumented": 0,
            "pointer_writes_skipped_local": 0,
            "bulk_calls_converted": 0,
            "rtti_sites": 0,
            "pointer_nullouts": 0,
            "delayed_free_scopes": 0,
        }
        for payload in payloads:
            for key in totals:
                totals[key] += payload["metrics"][key]
        # Units defining no functions never get a shard; their top-level
        # code still belongs in the census.
        leftovers = [unit for unit in program.units
                     if not artifacts.unit_functions.get(unit.filename)]
        if leftovers:
            totals["rtti_sites"] += count_rtti_sites_in(leftovers)
            totals["delayed_free_scopes"] += count_delayed_scopes_in(leftovers)
        metrics = {
            "pointer_writes_instrumented": totals["pointer_writes_instrumented"],
            "pointer_writes_skipped_local": totals["pointer_writes_skipped_local"],
            "bulk_calls_converted": totals["bulk_calls_converted"],
            "type_layouts": len(build_typeinfo(program).layouts),
            "rtti_sites": totals["rtti_sites"],
            "pointer_nullouts": totals["pointer_nullouts"],
            "delayed_free_scopes": totals["delayed_free_scopes"],
        }
        return AnalysisReport(name=self.name, findings=[], metrics=metrics)


def diagnostics_report(diagnostics) -> AnalysisReport:
    """Frontend errors as a pseudo-analysis (tolerant mode; never empty).

    ``diagnostics`` is a sequence of :class:`repro.kernel.build.ParseDiagnostic`
    records; the engine and the analysis service attach this report only when
    at least one translation unit failed to parse, so healthy runs are
    byte-identical with strict mode.
    """
    report = AnalysisReport(name="diagnostics")
    for diag in diagnostics:
        report.findings.append(make_finding(
            "diagnostics", diag.kind, "", diag.location,
            f"{diag.filename} skipped: {diag.message}"))
    report.findings.sort(key=finding_sort_key)
    report.metrics = {
        "parse_errors": len(report.findings),
        "skipped_files": sorted({diag.filename for diag in diagnostics}),
    }
    return report


def blocking_witness(artifacts: SharedArtifacts, name: str) -> list[str]:
    """A shortest call chain from ``name`` to a blocking primitive.

    This is the paper's "why might this block" explanation: the path ends
    at an annotated ``blocking`` seed, or at a ``blocking_if_wait``
    allocator when the function only blocks through a GFP_WAIT allocation.
    """
    blocking = artifacts.blocking
    path = artifacts.graph.shortest_path(name, set(blocking.seeds))
    if not path:
        path = artifacts.graph.shortest_path(name, set(blocking.conditional_seeds))
    return path or [name]


def summary_payload(artifacts: SharedArtifacts, name: str) -> dict:
    """One function's summary in JSON shape (CLI callgraph + service API)."""
    summary = artifacts.summaries.get(name)
    if summary is None:
        return {}
    payload = {
        "defined": summary.defined,
        "may_block": summary.may_block,
        "irq_delta": summary.irq_delta,
        "locks_held": [list(pair) for pair in summary.locks_held],
        "locks_released": [list(pair) for pair in summary.locks_released],
        "may_return_held": list(summary.may_return_held),
        "acquires": list(summary.acquires),
        "error_returns": list(summary.error_returns),
        "frame_size": summary.frame_size,
        "stack_depth": summary.stack_depth,
    }
    if summary.may_block:
        payload["witness"] = blocking_witness(artifacts, name)
    return payload


#: Construction order doubles as the default run order.
ANALYSIS_ORDER = ("deputy", "blockstop", "errcheck", "lockcheck",
                  "stackcheck", "ccount")


def make_registry(deputy_options: DeputyOptions | None = None,
                  runtime_checks: RuntimeCheckSet | None = None,
                  ) -> dict[str, EngineAnalysis]:
    """Instantiate every registered analysis adapter, in run order."""
    return {
        "deputy": DeputyAnalysis(deputy_options),
        "blockstop": BlockStopAnalysis(runtime_checks),
        "errcheck": ErrcheckAnalysis(),
        "lockcheck": LockcheckAnalysis(),
        "stackcheck": StackcheckAnalysis(),
        "ccount": CCountAnalysis(),
    }
