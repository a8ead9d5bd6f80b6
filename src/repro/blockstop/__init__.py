"""BlockStop: whole-program analysis of blocking in atomic context."""

from .blocking import (
    BlockingInfo,
    GFP_WAIT_BIT,
    call_site_may_block,
    collect_seeds,
    derive_blocking,
    emit_annotations,
)
from .callgraph import CallGraph, IndirectCall, build_direct_callgraph
from .checker import (
    AtomicCallSite,
    BlockStopChecker,
    BlockStopResult,
    Violation,
    check_blockstop,
    find_irq_handlers,
)
from .pointsto import FunctionPointerAnalysis, PointsToResult, Precision
from .report import BlockStopReport, build_report
from .runtime_checks import (
    ASSERT_BUILTIN,
    BlockStopRuntimeStats,
    RuntimeCheckSet,
    insert_assertions,
    install,
)

__all__ = [
    "BlockingInfo", "GFP_WAIT_BIT", "call_site_may_block", "collect_seeds",
    "derive_blocking", "emit_annotations",
    "CallGraph", "IndirectCall", "build_direct_callgraph",
    "AtomicCallSite", "BlockStopChecker", "BlockStopResult", "Violation",
    "check_blockstop", "find_irq_handlers",
    "FunctionPointerAnalysis", "PointsToResult", "Precision",
    "BlockStopReport", "build_report",
    "ASSERT_BUILTIN", "BlockStopRuntimeStats", "RuntimeCheckSet",
    "insert_assertions", "install",
]
