"""The always-on analysis service: watcher → incremental pass → snapshot.

:class:`AnalysisService` owns one :class:`IncrementalAnalyzer` and publishes
its results as immutable :class:`Snapshot` records.  Passes are serialized
behind a lock (the analyzer mutates shared parse state); readers never take
that lock — they grab ``service.snapshot`` (a single atomic attribute read)
and serve from it, so the HTTP API stays responsive mid-re-analysis.

With a corpus directory the service watches the tree and reconciles when
edits settle; without one it serves the embedded corpus and re-analyzes only
on ``POST /analyze``.

A pass that raises is reported, not lost: the service counts it
(``failed_passes``), keeps its type and message (``last_error``) and keeps
serving the last snapshot; the caller that ran it — ``POST /analyze``, the
watcher, the initial pass — gets the exception or logs it.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ..blockstop.pointsto import Precision
from ..engine.artifacts import SharedArtifacts
from ..engine.core import EngineReport
from .incremental import IncrementalAnalyzer, IncrementalStats
from .store import PersistentStore
from .watcher import CorpusWatcher, load_corpus_dir


@dataclass(frozen=True)
class Snapshot:
    """One published analysis state; everything a request needs, immutably."""

    revision: int
    report: EngineReport
    stats: IncrementalStats
    artifacts: SharedArtifacts
    created: float


#: How many past revisions' findings the service retains for ``?since=``
#: delta queries.  Old entries age out oldest-first; a ``since`` older than
#: the window degrades to a full (non-delta) response.
FINDINGS_HISTORY_LIMIT = 32


class AnalysisService:
    """Drive incremental re-analysis of a corpus and publish snapshots."""

    def __init__(self,
                 corpus_dir: str | Path | None = None,
                 files=None,
                 defines: dict[str, str] | None = None,
                 precision: Precision = Precision.TYPE_BASED,
                 poll_seconds: float = 0.5,
                 debounce_seconds: float = 0.3,
                 store_dir: str | Path | None = None,
                 store_max_mb: float | None = None,
                 verbose: bool = False) -> None:
        self.corpus_dir = Path(corpus_dir) if corpus_dir is not None else None
        if files is None and self.corpus_dir is not None:
            files = load_corpus_dir(self.corpus_dir)
        kwargs = {} if files is None else {"files": tuple(files)}
        #: The persistent warm-start store: a restarted serve re-solves ~0
        #: SCCs on an unchanged corpus because every fingerprint the
        #: analyzer computes hits the spilled artifact on disk.
        self.store = (PersistentStore(store_dir, max_mb=store_max_mb)
                      if store_dir is not None else None)
        self.analyzer = IncrementalAnalyzer(defines=defines,
                                            precision=precision,
                                            store=self.store,
                                            **kwargs)
        self.verbose = verbose
        self.snapshot: Snapshot | None = None
        self.passes = 0
        self.started = time.monotonic()
        self._reconcile_lock = threading.Lock()
        #: Coalescing gate state: at most one pass runs and at most one
        #: waits queued; later requests ride on the queued pass's snapshot.
        self._gate = threading.Condition()
        self._running = False
        self._queued = False
        self._pass_seq = 0
        #: (pass sequence number, message) of the latest failed pass, so
        #: callers that coalesced onto it get its failure.  Only the text is
        #: kept: the exception's traceback would keep that pass's program
        #: alive.
        self._failure: tuple[int, str] | None = None
        #: Passes that raised, and the latest one's type, message and
        #: revision (kept after later passes succeed).
        self.failed_passes = 0
        self.last_error: dict | None = None
        self._totals = {"parsed_units": 0, "consts_solved": 0,
                        "dirty_sccs": 0, "sccs_reused": 0,
                        "shards_rerun": 0, "shards_reused": 0,
                        "full_reparses": 0}
        #: revision -> that pass's findings, for ``GET /findings?since=``.
        #: Insertion-ordered; trimmed to FINDINGS_HISTORY_LIMIT entries.
        self._findings_history: dict[int, list[dict]] = {}
        self.watcher = (CorpusWatcher(self.corpus_dir,
                                      self._watcher_reconcile,
                                      poll_seconds=poll_seconds,
                                      debounce_seconds=debounce_seconds)
                        if self.corpus_dir is not None else None)

    # -- lifecycle ----------------------------------------------------------

    def uptime(self) -> float:
        return time.monotonic() - self.started

    def reconcile(self) -> Snapshot:
        """Run one analysis pass over the current sources and publish it.

        A pass that raises publishes nothing: the last snapshot keeps
        serving, the failure is counted in ``failed_passes`` and kept in
        ``last_error``, and the exception propagates to the caller.
        """
        with self._reconcile_lock:
            try:
                files = (load_corpus_dir(self.corpus_dir)
                         if self.corpus_dir is not None else None)
                report = self.analyzer.analyze(files)
            except Exception as error:
                self.failed_passes += 1
                self.last_error = {"type": type(error).__name__,
                                   "message": str(error),
                                   "revision": self.analyzer.revision}
                print(f"repro-engine serve: analysis pass "
                      f"{self.analyzer.revision} failed", file=sys.stderr)
                traceback.print_exc()
                raise
            stats = self.analyzer.last_stats
            snapshot = Snapshot(revision=self.analyzer.revision,
                                report=report, stats=stats,
                                artifacts=self.analyzer.artifacts,
                                created=time.time())
            for key in ("parsed_units", "consts_solved", "dirty_sccs",
                        "sccs_reused", "shards_rerun", "shards_reused"):
                self._totals[key] += getattr(stats, key)
            if stats.full_reparse:
                self._totals["full_reparses"] += 1
            self._findings_history[snapshot.revision] = (
                snapshot.report.all_findings())
            while len(self._findings_history) > FINDINGS_HISTORY_LIMIT:
                oldest = next(iter(self._findings_history))
                del self._findings_history[oldest]
            # Publishing is one attribute store: concurrent readers see
            # either the old snapshot or the new one, never a mixture.
            self.snapshot = snapshot
            self.passes += 1
            return snapshot

    def request_reconcile(self) -> "tuple[Snapshot | None, bool]":
        """Run — or coalesce onto — an analysis pass; returns
        ``(snapshot, coalesced)``.

        At most one pass runs and at most one sits queued behind it.  A
        request arriving while a pass is in flight becomes the queued
        runner (it still gets a pass that starts *after* its arrival, so
        it observes its own edits); any request arriving while both slots
        are taken waits for the queued pass and rides on its snapshot —
        that pass also starts after the request arrived, so merging them
        loses nothing.  Keeps a watcher burst plus concurrent ``POST
        /analyze`` calls from stacking up N redundant full passes.  A pass
        that raises re-raises to the request that ran it; the requests that
        rode on it get a :class:`RuntimeError` with its message.
        """
        with self._gate:
            if not self._running:
                self._running = True
            elif not self._queued:
                self._queued = True
                while self._running:
                    self._gate.wait()
                self._queued = False
                self._running = True
            else:
                # Both slots taken: the queued pass has not started yet, so
                # its snapshot will cover this request's changes too.
                target = self._pass_seq + 2
                while self._pass_seq < target:
                    self._gate.wait()
                if self._failure is not None and self._failure[0] == target:
                    raise RuntimeError(self._failure[1])
                return self.snapshot, True
        failure = None
        try:
            snapshot = self.reconcile()
        except Exception as error:
            failure = str(error)
            raise
        finally:
            with self._gate:
                self._running = False
                self._pass_seq += 1
                if failure is not None:
                    self._failure = (self._pass_seq, failure)
                self._gate.notify_all()
        return snapshot, False

    def _watcher_reconcile(self) -> None:
        """The watcher's and the initial pass's callback.  A failed pass is
        already recorded and printed by :meth:`reconcile`; the service keeps
        serving its last snapshot and the next edit runs a fresh pass."""
        try:
            self.request_reconcile()
        except Exception:  # noqa: BLE001 - the service outlives a bad pass
            pass

    def findings_at(self, revision: int) -> list[dict] | None:
        """The findings published at ``revision``, if still in the window."""
        return self._findings_history.get(revision)

    def start(self) -> None:
        """Kick off the initial pass (in the background) and the watcher."""
        threading.Thread(target=self._watcher_reconcile,
                         name="repro-initial-reconcile",
                         daemon=True).start()
        if self.watcher is not None:
            self.watcher.start()

    def stop(self) -> None:
        """Stop watching and, once a running pass is done, close the store
        (which dates the rows the last pass served from memory)."""
        if self.watcher is not None:
            self.watcher.stop()
        if self.store is not None:
            with self._reconcile_lock:
                self.store.close()

    # -- reporting ----------------------------------------------------------

    def status(self) -> str:
        """``ok`` once a pass published a snapshot; before that ``failed``
        if a pass raised, else ``starting``."""
        if self.snapshot is not None:
            return "ok"
        return "failed" if self.last_error is not None else "starting"

    def stats_payload(self) -> dict:
        snapshot = self.snapshot
        payload = {
            "status": self.status(),
            "uptime_seconds": round(self.uptime(), 3),
            "passes": self.passes,
            "failed_passes": self.failed_passes,
            "last_error": self.last_error,
            "watching": (self.corpus_dir.as_posix()
                         if self.corpus_dir is not None else None),
            "totals": dict(self._totals),
        }
        if self.store is not None:
            payload["store"] = self.store.stats()
        if snapshot is not None:
            payload.update({
                "revision": snapshot.revision,
                "corpus_files": snapshot.report.corpus_files,
                "finding_count": snapshot.report.finding_count,
                "precision": snapshot.report.precision,
                "last_pass": snapshot.stats.to_dict(),
                "summary_stats": snapshot.report.summary_stats,
            })
            deputy = snapshot.report.analyses.get("deputy")
            if deputy is not None:
                metrics = deputy.metrics
                payload["deputy"] = {
                    "checks_total": metrics.get("obligations_total", 0),
                    "checks_discharged": metrics.get("obligations_static", 0),
                    "checks_interval": metrics.get("checks_interval", 0),
                    "checks_relational": metrics.get("checks_relational", 0),
                }
        return payload


def serve(corpus_dir: str | Path | None = None,
          host: str = "127.0.0.1", port: int = 8571,
          defines: dict[str, str] | None = None,
          precision: Precision = Precision.TYPE_BASED,
          poll_seconds: float = 0.5,
          store_dir: str | Path | None = None,
          store_max_mb: float | None = None,
          verbose: bool = False) -> None:
    """Run the analysis service until interrupted (the CLI entry point)."""
    from .api import make_server

    service = AnalysisService(corpus_dir=corpus_dir, defines=defines,
                              precision=precision, poll_seconds=poll_seconds,
                              store_dir=store_dir,
                              store_max_mb=store_max_mb, verbose=verbose)
    server = make_server(service, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    service.start()
    print(f"repro-engine serve: listening on http://{bound_host}:{bound_port}"
          + (f", watching {service.corpus_dir}" if service.corpus_dir else
             " (embedded corpus; POST /analyze to refresh)"),
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        server.server_close()
