"""The unified analysis engine: parse once, analyze everything.

Public surface:

* :class:`AnalysisEngine` — the batch front end: each run is one pass of
  the incremental analyzer (:mod:`repro.service.incremental`) over the
  selected analyses, which parses the corpus once, keys every artifact,
  and runs the checker shards serially or over one work-stealing pool;
* :class:`SharedArtifacts` / :func:`build_shared_artifacts` — the artifact
  bundle every analysis consumes, and its plain from-scratch derivation;
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
from .artifacts import SharedArtifacts, build_shared_artifacts
from .core import AnalysisEngine, EngineReport

__all__ = [
    "ANALYSIS_ORDER", "AnalysisReport", "EngineAnalysis",
    "finding_sort_key", "make_finding", "make_registry",
    "SharedArtifacts", "build_shared_artifacts",
    "AnalysisEngine", "EngineReport",
]
