"""The from-scratch reference report the analysis pipeline is tested against.

Every batch run and every service pass goes through one pipeline, the
incremental analyzer, so comparing the engine with the analyzer compares
that pipeline with itself.  :func:`reference_report` is the independent
oracle: it parses with :func:`parse_corpus_tolerant`, derives the artifacts
with :func:`build_shared_artifacts` (no keys, no memo, no store, no pool),
runs each adapter's ``run_shard`` over every unit and merges, exactly the
composition the pipeline's keyed derivation must equal.
"""

from __future__ import annotations

from repro.blockstop.pointsto import Precision
from repro.engine.analyses import ANALYSIS_ORDER, diagnostics_report, make_registry
from repro.engine.artifacts import build_shared_artifacts
from repro.engine.core import EngineReport, summary_stats
from repro.kernel.build import parse_corpus_tolerant


def reference_report(files, analyses=None,
                     precision: Precision = Precision.TYPE_BASED) -> EngineReport:
    """The report of ``analyses`` (default: all, in registry order) over
    ``files``, computed from scratch."""
    files = tuple(files)
    program, diagnostics = parse_corpus_tolerant(files)
    artifacts = build_shared_artifacts(program, precision)
    registry = make_registry()
    report = EngineReport(corpus_files=[f.filename for f in files],
                          precision=precision.name.lower())
    for name in ANALYSIS_ORDER:
        if analyses is not None and name not in analyses:
            continue
        adapter = registry[name]
        shards = ([functions for functions in artifacts.unit_functions.values()
                   if functions] if adapter.per_unit else [None])
        report.analyses[name] = adapter.merge(
            artifacts, [adapter.run_shard(artifacts, functions)
                        for functions in shards])
    if diagnostics:
        report.analyses["diagnostics"] = diagnostics_report(diagnostics)
    report.summary_stats = summary_stats(artifacts, summary_cache_hit=False,
                                         consts_cache_hit=False)
    return report
