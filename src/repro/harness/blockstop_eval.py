"""Experiment E5: BlockStop on the kernel corpus (§2.3's in-text numbers)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blockstop import (
    BlockStopReport,
    Precision,
    RuntimeCheckSet,
    build_report,
    run_blockstop,
)

#: The paper's reference values.
PAPER_BLOCKSTOP = {
    "real_bugs": 2,
    "runtime_checks": 15,
}

#: The functions the paper's two seeded bugs live in (ground truth for
#: scoring against PAPER_BLOCKSTOP["real_bugs"]).
SEEDED_BUG_CALLERS = frozenset({"buggy_stats_update", "disk_timeout_interrupt"})

#: Additional seeded bugs only the interprocedural summary framework finds
#: (the caller never names a disable primitive; the atomic context arrives
#: through the callee's IRQ delta).  Scored separately so the paper's
#: two-bug headline number stays comparable.
INTERPROC_BUG_CALLERS = frozenset({"buggy_deferred_flush"})

#: Condition-gated seeds: the ``if (1)`` twin of a constant-gated debug
#: branch — its blocking call inside the atomic region is live and must
#: keep reporting after edge pruning.
CONST_TWIN_BUG_CALLERS = frozenset({"stats_sample_slow"})

#: Constant-false shapes the condition-aware lattice must prune: a blocking
#: call inside an ``if (0)`` debug arm of an atomic region, and an
#: ``if (0)``-guarded lock acquire whose leak previously reported.  Any
#: blockstop report from these callers is a pruned-FP regression.
CONST_PRUNED_CALLERS = frozenset({"stats_sample_fast", "audit_try_slot_debug",
                                  "audit_probe_debug"})

#: Every caller whose report is a true positive, paper-era, interprocedural,
#: or condition-gated.
ALL_SEEDED_CALLERS = (SEEDED_BUG_CALLERS | INTERPROC_BUG_CALLERS
                      | CONST_TWIN_BUG_CALLERS)


@dataclass
class BlockStopEvalResult:
    """BlockStop run before and after inserting the manual run-time checks."""

    before: BlockStopReport
    after: BlockStopReport
    field_sensitive: BlockStopReport
    runtime_checks: RuntimeCheckSet
    real_bug_callers: set[str] = field(default_factory=set)
    false_positive_callees: set[str] = field(default_factory=set)
    paper: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.paper is None:
            self.paper = dict(PAPER_BLOCKSTOP)

    @property
    def real_bugs_found(self) -> int:
        return len(self.real_bug_callers & SEEDED_BUG_CALLERS)

    @property
    def interproc_bugs_found(self) -> int:
        return len(self.real_bug_callers & INTERPROC_BUG_CALLERS)

    @property
    def const_twin_bugs_found(self) -> int:
        """``if (1)`` twins of pruned shapes that (correctly) still report."""
        return len(self.real_bug_callers & CONST_TWIN_BUG_CALLERS)

    @property
    def pruned_fp_reports(self) -> int:
        """Reports from constant-false shapes — must be zero after pruning."""
        return sum(1 for v in self.before.reported
                   if v.caller in CONST_PRUNED_CALLERS)

    def shape_holds(self) -> bool:
        """The §2.3 claims:

        * both seeded bugs are found (plus the interprocedural seeds the
          summary framework adds, and the live ``if (1)`` twins of the
          condition-gated shapes);
        * the constant-false shapes are pruned — zero reports from them;
        * the conservative points-to analysis also produces false positives;
        * the manual run-time checks silence every false positive while the
          real bugs are still reported;
        * the field-sensitive points-to ablation removes (most of) the false
          positives without the manual checks.
        """
        bugs_found = (self.real_bugs_found == 2
                      and self.interproc_bugs_found == len(INTERPROC_BUG_CALLERS)
                      and self.const_twin_bugs_found == len(CONST_TWIN_BUG_CALLERS))
        pruned = self.pruned_fp_reports == 0
        has_false_positives = len(self.false_positive_callees) > 0
        silenced = (self.after.violations_reported > 0
                    and {v.caller for v in self.after.reported} <= ALL_SEEDED_CALLERS
                    and self.after.violations_silenced > 0)
        improved = (self.field_sensitive.violations_reported
                    <= self.before.violations_reported)
        return bugs_found and pruned and has_false_positives and silenced and improved


def run_blockstop_eval(engine: "AnalysisEngine | None" = None) -> BlockStopEvalResult:
    """Run BlockStop with and without the manual run-time checks.

    All three runs (before/after the manual checks, and the field-sensitive
    ablation) share the engine's parsed corpus; the two type-based runs also
    share its call graph and blocking summary, so the corpus is parsed once
    and the points-to analysis runs once per precision instead of per run.
    """
    from ..engine import AnalysisEngine, build_shared_artifacts

    if engine is None:
        engine = AnalysisEngine()
    program = engine.program()

    def artifacts_at(precision: Precision):
        # The engine's own artifacts where its precision matches; otherwise
        # derive them from its parse, rather than mislabel a report.
        if engine.precision is precision:
            return engine.artifacts()
        return build_shared_artifacts(program, precision)

    # The before/after legs are defined as TYPE_BASED runs.
    shared = artifacts_at(Precision.TYPE_BASED)

    before_result = run_blockstop(program, Precision.TYPE_BASED,
                                  graph=shared.graph, blocking=shared.blocking,
                                  irq_handlers=shared.irq_handlers,
                                  consts=shared.consts)
    before = build_report(before_result)

    real_bug_callers = {v.caller for v in before_result.reported
                        if v.caller in ALL_SEEDED_CALLERS}
    # Every blocking callee implicated from a non-seeded caller is a false
    # positive of the conservative points-to analysis; the remedy is a manual
    # run-time assertion at the top of that callee.
    false_positive_callees = {v.callee for v in before_result.reported
                              if v.caller not in ALL_SEEDED_CALLERS}
    checks = RuntimeCheckSet(set(false_positive_callees))

    after_result = run_blockstop(program, Precision.TYPE_BASED,
                                 runtime_checks=checks,
                                 graph=shared.graph, blocking=shared.blocking,
                                 irq_handlers=shared.irq_handlers,
                                 consts=shared.consts)
    after = build_report(after_result)

    field_shared = artifacts_at(Precision.FIELD_SENSITIVE)
    field_result = run_blockstop(program, Precision.FIELD_SENSITIVE,
                                 graph=field_shared.graph,
                                 blocking=field_shared.blocking,
                                 irq_handlers=field_shared.irq_handlers,
                                 consts=field_shared.consts)
    field_report = build_report(field_result)

    return BlockStopEvalResult(
        before=before, after=after, field_sensitive=field_report,
        runtime_checks=checks,
        real_bug_callers=real_bug_callers,
        false_positive_callees=false_positive_callees)
