"""The unified analysis engine: parse once, analyze everything.

Public surface:

* :class:`AnalysisEngine` — parses the corpus once, memoizes shared
  artifacts, dispatches the registered analyses (serially, or sharded by
  translation unit over one work-stealing worker pool);
* :class:`ArtifactCache` / :class:`SharedArtifacts` — the content-keyed
  memo table and the artifact bundle every analysis consumes;
* :class:`EngineReport` / :class:`AnalysisReport` — merged, serializable
  results;
* ``python -m repro.engine`` (or the ``repro-engine`` script) — the batch
  CLI.
"""

from .analyses import (
    ANALYSIS_ORDER,
    AnalysisReport,
    EngineAnalysis,
    finding_sort_key,
    make_finding,
    make_registry,
)
from .artifacts import ArtifactCache, SharedArtifacts, build_shared_artifacts
from .core import AnalysisEngine, EngineReport

__all__ = [
    "ANALYSIS_ORDER", "AnalysisReport", "EngineAnalysis",
    "finding_sort_key", "make_finding", "make_registry",
    "ArtifactCache", "SharedArtifacts", "build_shared_artifacts",
    "AnalysisEngine", "EngineReport",
]
