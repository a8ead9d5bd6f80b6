"""Tests for the analysis service: incremental invalidation correctness,
parse-error isolation, corpus export/watch round-trips, cache eviction,
and the HTTP JSON API.

The invalidation tests assert two things at once: the *work* stays confined
(via the per-process solve/parse counters) and the *answer* stays exact
(reports byte-identical to a from-scratch analysis of the edited sources).
"""

from __future__ import annotations

import copy
import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.dataflow.consts import CONST_SOLVE_COUNTS, reset_const_solve_counts
from repro.dataflow.interproc import SCC_SOLVE_COUNTS, reset_scc_solve_counts
from repro.engine import AnalysisEngine, ArtifactCache
from repro.kernel.build import PARSE_COUNTS, reset_parse_counts
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.service import (
    AnalysisService,
    CorpusWatcher,
    IncrementalAnalyzer,
    export_corpus,
    load_corpus_dir,
)
from repro.service.api import make_server

# ---------------------------------------------------------------------------
# A small corpus with a cross-file call chain: top -> mid -> leaf, plus an
# unrelated `lone`.  `leaf` blocks under a spinlock so every analyzer that
# matters (summaries, lockcheck, blockstop) has real work to do, and the
# chain makes "transitive callers re-solve, bystanders do not" observable.
# ---------------------------------------------------------------------------

CHAIN_LIB = """
#define CHAIN_BONUS 3
void spin_lock_irqsave(int *lock);
void spin_unlock_irqrestore(int *lock);
void schedule(void) blocking;
static int chain_lock;
int leaf(void) {
    spin_lock_irqsave(&chain_lock);
    schedule();
    spin_unlock_irqrestore(&chain_lock);
    return 0;
}
int lone(void) {
    return 7;
}
"""

CHAIN_MID = """
int leaf(void);
int mid(void) {
    return leaf() + 1;
}
"""

CHAIN_TOP = """
int mid(void);
int top(void) {
    return mid() + CHAIN_BONUS;
}
"""

CHAIN_FILES = (CorpusFile("lib.c", CHAIN_LIB),
               CorpusFile("mid.c", CHAIN_MID),
               CorpusFile("top.c", CHAIN_TOP))

# ---------------------------------------------------------------------------
# Deputy reads another unit's function only through its signature.  `fill`
# wants `count(n)` bytes, so a caller passing `char local[8]` and 8 meets
# the contract statically; `count(n + 1)` turns that into a run-time check
# without touching the caller's unit.
# ---------------------------------------------------------------------------

FILL_LIB = """
int fill(char * count(n) buf, unsigned int n) {
    buf[0] = 0;
    return 0;
}
"""

FILL_COUNT_EDIT = ("count(n) buf", "count(n + 1) buf")

LATER_DEFINED = (FILL_LIB, FILL_LIB + """
int later(char * count(n + 1) buf, unsigned int n) {
    return 0;
}
""")

FILL_CALLER = """
int fill(char * count(n) buf, unsigned int n);
int caller(void) {
    char local[8];
    return fill(local, 8);
}
"""

FILL_AS_VALUE = """
int fill(char * count(n) buf, unsigned int n);
int take(void) {
    int (*fp)(char *, unsigned int) = fill;
    return 0;
}
"""

FILL_SHADOWED = """
int spare(char *buf, unsigned int n) {
    return 0;
}
int use(void) {
    char local[8];
    int (*fill)(char *, unsigned int) = spare;
    return fill(local, 8);
}
"""

LATER_CALLER = """
int caller(void) {
    char local[8];
    return later(local, 8);
}
"""


def edit(files, filename, old, new):
    """Return ``files`` with ``old`` replaced by ``new`` in ``filename``."""
    out = []
    for corpus_file in files:
        if corpus_file.filename == filename:
            assert old in corpus_file.source
            corpus_file = replace(corpus_file,
                                  source=corpus_file.source.replace(old, new))
        out.append(corpus_file)
    return tuple(out)


def reset_counters():
    reset_parse_counts()
    reset_const_solve_counts()
    reset_scc_solve_counts()


def normalized(report):
    """A report dict with runtime-dependent fields removed.

    ``to_dict`` shares live dicts with the report, so deep-copy before
    popping — a shallow pop would corrupt the report for later assertions.
    """
    payload = copy.deepcopy(report.to_dict())
    for key in ("elapsed_seconds", "cache_stats", "jobs", "parallel", "perf"):
        payload.pop(key, None)
    payload["summary_stats"].pop("cache_hit")
    payload["summary_stats"].pop("consts_cache_hit", None)
    return payload


def assert_reports_identical(incremental_report, fresh_report):
    left = json.dumps(normalized(incremental_report), sort_keys=True)
    right = json.dumps(normalized(fresh_report), sort_keys=True)
    assert left == right


def assert_matches_cold(report, files):
    """``report`` equals a fresh analyzer's, and its findings a batch run's."""
    assert_reports_identical(report, IncrementalAnalyzer(files=files).analyze())
    batch = AnalysisEngine(files=files, tolerant=True).run(jobs=1)
    assert report.all_findings() == batch.all_findings()


def deputy_counts(report):
    metrics = report.analyses["deputy"].metrics
    return metrics["obligations_static"], metrics["obligations_runtime"]


# ---------------------------------------------------------------------------
# Invalidation correctness
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_noop_pass_reuses_everything(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        reset_counters()
        report = analyzer.analyze(CHAIN_FILES)
        stats = analyzer.last_stats
        assert stats.parsed_units == 0
        assert stats.dirty_sccs == 0
        assert stats.consts_solved == 0
        assert stats.shards_rerun == 0
        assert not PARSE_COUNTS and not SCC_SOLVE_COUNTS
        assert report.summary_stats["cache_hit"] is True

    def test_body_edit_resolves_only_transitive_callers(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        edited = edit(CHAIN_FILES, "lib.c", "return 0;", "return 1;")
        reset_counters()
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats

        # Work stays confined: one unit re-parsed in place, and only the
        # edited function plus its transitive callers re-solve.
        assert stats.full_reparse is False
        assert dict(PARSE_COUNTS) == {"lib.c": 1}
        resolved = {name for scc in SCC_SOLVE_COUNTS for name in scc}
        assert resolved == {"leaf", "mid", "top"}
        assert set(CONST_SOLVE_COUNTS) <= {"leaf"}
        assert stats.consts_solved == 1
        assert stats.dirty_sccs == 3
        assert "lone" not in resolved
        # leaf keeps its signature, so no other unit's Deputy shard reads
        # anything that moved; the one re-run is lib.c's own.  errcheck
        # and lockcheck read callee summaries: every unit on the chain.
        assert stats.shards_rerun_by_analysis == {
            "deputy": 1, "blockstop": 1, "errcheck": 3, "lockcheck": 3,
            "stackcheck": 1, "ccount": 1}
        assert stats.shards_rerun == 10

        # The answer stays exact: byte-identical to analyzing the edited
        # corpus from scratch.
        assert_matches_cold(report, edited)

    @pytest.mark.parametrize("user, change, before, after", [
        # The caller's call contract is now checked at run time.
        (FILL_CALLER, FILL_COUNT_EDIT, (1, 1), (0, 2)),
        # No call edge reaches `fill` from user.c, so callee SCC keys would
        # miss this dependency; the referenced name's signature does not.
        (FILL_AS_VALUE, FILL_COUNT_EDIT, (0, 1), (0, 1)),
        # The call contract resolves `fill(...)` through the global `fill`
        # although a local pointer of that name is in scope, so a local's
        # name still folds in the global's signature.
        (FILL_SHADOWED, FILL_COUNT_EDIT, (1, 1), (0, 2)),
        # A called name with no definition gains one in another unit.
        (LATER_CALLER, LATER_DEFINED, (0, 1), (0, 2)),
    ], ids=["caller", "value-only", "shadowing-local", "gains-definition"])
    def test_signature_edit_reruns_referencing_deputy_shard(self, user, change,
                                                            before, after):
        files = (CorpusFile("lib.c", FILL_LIB), CorpusFile("user.c", user))
        analyzer = IncrementalAnalyzer(files=files)
        assert deputy_counts(analyzer.analyze()) == before
        edited = edit(files, "lib.c", *change)
        report = analyzer.analyze(edited)
        assert analyzer.last_stats.full_reparse is False
        # lib.c's own shard plus user.c's, which reads what moved.
        assert analyzer.last_stats.shards_rerun_by_analysis["deputy"] == 2
        assert deputy_counts(report) == after
        assert_matches_cold(report, edited)

    def test_line_shift_skips_summaries_but_refreshes_findings(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        # A leading blank line shifts every location in the file without
        # changing any rendered function: summaries stay cached (they are
        # location-free), but finding shards re-run for the new line numbers.
        edited = edit(CHAIN_FILES, "mid.c", "int leaf(void);",
                      "\nint leaf(void);")
        reset_counters()
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats
        assert stats.full_reparse is False
        assert stats.dirty_sccs == 0
        assert stats.consts_solved == 0
        assert stats.shards_rerun > 0
        assert_reports_identical(report, IncrementalAnalyzer(files=edited).analyze())

    def test_macro_edit_forces_full_reparse(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        # CHAIN_BONUS is defined in lib.c and expanded in top.c: the shared
        # macro table changes, so the in-place guard must reject the edit
        # and re-parse the whole corpus.
        edited = edit(CHAIN_FILES, "lib.c", "#define CHAIN_BONUS 3",
                      "#define CHAIN_BONUS 4")
        reset_counters()
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats
        assert stats.full_reparse is True
        assert dict(PARSE_COUNTS) == {"lib.c": 2, "mid.c": 1, "top.c": 1}
        assert_reports_identical(report, IncrementalAnalyzer(files=edited).analyze())

    def test_new_global_decl_forces_full_reparse(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        edited = edit(CHAIN_FILES, "top.c", "int mid(void);",
                      "int mid(void);\nstatic int chain_extra;")
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats
        assert stats.full_reparse is True
        assert stats.sccs_reused == 0
        assert_reports_identical(report, IncrementalAnalyzer(files=edited).analyze())

    def test_file_set_change_forces_full_reparse(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        extra = CorpusFile("extra.c", "int extra(void) { return 0; }\n")
        report = analyzer.analyze(CHAIN_FILES + (extra,))
        assert analyzer.last_stats.full_reparse is True
        fresh = IncrementalAnalyzer(files=CHAIN_FILES + (extra,)).analyze()
        assert_reports_identical(report, fresh)

    def test_defines_feed_every_cache_key(self):
        plain = IncrementalAnalyzer(files=CHAIN_FILES)
        plain.analyze()
        defined = IncrementalAnalyzer(files=CHAIN_FILES,
                                      defines={"CHAIN_EXTRA": "1"})
        defined.analyze()
        # The define reaches the globals fingerprint, so no SCC key nor
        # shard key can collide between the two configurations.
        assert plain._scc_store.keys().isdisjoint(defined._scc_store.keys())
        assert plain._shard_store.keys().isdisjoint(defined._shard_store.keys())


class TestKernelCorpusEquivalence:
    def test_cold_pass_matches_batch_engine(self):
        incremental = IncrementalAnalyzer().analyze()
        batch = AnalysisEngine(files=KERNEL_FILES, tolerant=True).run(jobs=1)
        assert_reports_identical(incremental, batch)

    def test_touch_one_unit_dirties_one_scc(self):
        analyzer = IncrementalAnalyzer()
        analyzer.analyze()
        touched = KERNEL_FILES[:-1] + (replace(
            KERNEL_FILES[-1],
            source=KERNEL_FILES[-1].source
            + "\nint __service_touch(void) { return 0; }\n"),)
        analyzer.analyze(touched)
        stats = analyzer.last_stats
        assert stats.full_reparse is False
        assert stats.parsed_units == 1
        assert stats.dirty_sccs == 1
        assert stats.sccs_reused > 100

    def test_touch_mid_corpus_unit_reparses_in_place(self):
        # Regression: a non-final TU's struct tags stay interned in the
        # registry between passes; that leftover state must not disqualify
        # the TU's own in-place re-parse (it once forced a full re-parse
        # for every file but the last).
        analyzer = IncrementalAnalyzer()
        analyzer.analyze()
        touched = (replace(
            KERNEL_FILES[0],
            source=KERNEL_FILES[0].source
            + "\nint __service_touch_first(void) { return 0; }\n"),
        ) + KERNEL_FILES[1:]
        analyzer.analyze(touched)
        stats = analyzer.last_stats
        assert stats.full_reparse is False
        assert stats.parsed_units == 1
        assert stats.dirty_sccs == 1


# ---------------------------------------------------------------------------
# Parse-error isolation
# ---------------------------------------------------------------------------

class TestParseErrorIsolation:
    def test_broken_unit_reports_diagnostic_and_keeps_last_good(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        baseline = analyzer.analyze()
        baseline_findings = [f for f in baseline.all_findings()
                             if f["analysis"] != "diagnostics"]

        broken = edit(CHAIN_FILES, "mid.c", "return leaf() + 1;",
                      "return leaf( + 1;")
        report = analyzer.analyze(broken)
        stats = analyzer.last_stats
        assert stats.parse_errors == 1
        diagnostics = report.analyses["diagnostics"].findings
        assert len(diagnostics) == 1
        assert diagnostics[0]["file"] == "mid.c"
        # Every non-diagnostic finding is served from the last good parse.
        kept = [f for f in report.all_findings()
                if f["analysis"] != "diagnostics"]
        assert kept == baseline_findings

        # Re-analyzing the same broken content re-parses nothing.
        reset_counters()
        analyzer.analyze(broken)
        assert analyzer.last_stats.parsed_units == 0
        assert analyzer.last_stats.parse_errors == 1

        # Fixing the file clears the diagnostic and converges on the fresh
        # answer.
        fixed = analyzer.analyze(CHAIN_FILES)
        assert "diagnostics" not in fixed.analyses
        assert_reports_identical(fixed,
                                 IncrementalAnalyzer(files=CHAIN_FILES).analyze())


# ---------------------------------------------------------------------------
# Artifact-cache eviction
# ---------------------------------------------------------------------------

class TestCacheEviction:
    def test_lru_eviction_respects_budget(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path, max_mb=0.001)
        for index in range(4):
            cache.get_or_build(f"artifact-{index}", lambda: b"x" * 2048)
        assert cache.evictions >= 3
        assert cache.store.total_bytes() <= cache.store.max_bytes

    def test_no_budget_means_no_eviction(self, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path)
        for index in range(4):
            cache.get_or_build(f"artifact-{index}", lambda: b"x" * 2048)
        assert cache.evictions == 0
        assert cache.store.entry_count("artifact") == 4


# ---------------------------------------------------------------------------
# Corpus export / load / watch
# ---------------------------------------------------------------------------

class TestCorpusOnDisk:
    def test_export_load_round_trip(self, tmp_path):
        manifest = export_corpus(tmp_path, CHAIN_FILES)
        assert manifest.exists()
        assert load_corpus_dir(tmp_path) == CHAIN_FILES

    def test_load_without_manifest_sorts_paths(self, tmp_path):
        export_corpus(tmp_path, CHAIN_FILES)
        (tmp_path / "MANIFEST.json").unlink()
        loaded = load_corpus_dir(tmp_path)
        assert [f.filename for f in loaded] == ["lib.c", "mid.c", "top.c"]
        assert {f.source for f in loaded} == {f.source for f in CHAIN_FILES}

    def test_watcher_fires_once_per_settled_edit(self, tmp_path):
        export_corpus(tmp_path, CHAIN_FILES)
        events = []
        watcher = CorpusWatcher(tmp_path, lambda: events.append(1),
                                poll_seconds=0.01, debounce_seconds=0.01)
        assert watcher.poll_once() is False
        (tmp_path / "mid.c").write_text(CHAIN_MID + "\n// touched\n")
        assert watcher.poll_once() is True
        assert events == [1]
        # The new state is now the baseline; nothing further fires.
        assert watcher.poll_once() is False
        assert events == [1]


# ---------------------------------------------------------------------------
# HTTP API (in-process server on an ephemeral port)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def http_service():
    service = AnalysisService(files=CHAIN_FILES)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]

    def request(path, method="GET"):
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", method=method)
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.load(error)

    try:
        yield service, request
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


class TestHTTPAPI:
    def test_health_is_503_until_first_pass(self, http_service):
        service, request = http_service
        status, payload = request("/health")
        assert (status, payload["status"]) == (503, "starting")
        status, payload = request("/findings")
        assert status == 503
        service.reconcile()
        status, payload = request("/health")
        assert status == 200
        assert payload["revision"] == 1

    def test_findings_match_snapshot_and_filter(self, http_service):
        service, request = http_service
        service.reconcile()
        expected = service.snapshot.report.all_findings()
        status, payload = request("/findings")
        assert status == 200
        assert payload["count"] == len(expected)
        assert payload["findings"] == expected

        status, payload = request("/findings?checker=blockstop")
        assert status == 200
        assert payload["findings"]
        assert all(f["analysis"] == "blockstop" for f in payload["findings"])

        status, payload = request("/findings?function=leaf")
        assert all(f["function"] == "leaf" for f in payload["findings"])

    def test_summaries_endpoint(self, http_service):
        service, request = http_service
        service.reconcile()
        status, payload = request("/summaries/leaf")
        assert status == 200
        assert payload["function"] == "leaf"
        assert payload["scc"]["members"] == ["leaf"]
        assert payload["scc"]["recursive"] is False
        status, payload = request("/summaries/no_such_function")
        assert status == 404

    def test_stats_and_analyze(self, http_service):
        service, request = http_service
        service.reconcile()
        before = service.passes
        status, payload = request("/analyze", method="POST")
        assert status == 200
        assert payload["status"] == "ok"
        assert service.passes == before + 1
        # Nothing changed between passes, so the forced pass reused it all.
        assert payload["stats"]["dirty_sccs"] == 0

        status, payload = request("/stats")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["finding_count"] == service.snapshot.report.finding_count
        assert payload["totals"]["full_reparses"] >= 1

    def test_unknown_routes_404(self, http_service):
        _, request = http_service
        status, payload = request("/nonsense")
        assert status == 404
        assert "/health" in payload["endpoints"]
        assert "/findings/by-file/<tu>" in payload["endpoints"]
        status, _ = request("/nonsense", method="POST")
        assert status == 404

    def test_findings_by_file(self, http_service):
        service, request = http_service
        service.reconcile()
        all_findings = service.snapshot.report.all_findings()
        expected = [f for f in all_findings if f["file"] == "lib.c"]
        assert expected  # leaf's blocking-under-lock findings live here
        status, payload = request("/findings/by-file/lib.c")
        assert status == 200
        assert payload["file"] == "lib.c"
        assert payload["count"] == len(expected)
        assert payload["findings"] == expected
        # A file with no findings (or not in the corpus) is an empty list,
        # not an error — clients poll files speculatively.
        status, payload = request("/findings/by-file/no_such.c")
        assert (status, payload["count"], payload["findings"]) == (200, 0, [])

    def test_findings_since_current_revision_is_empty_delta(self, http_service):
        service, request = http_service
        service.reconcile()
        revision = service.snapshot.revision
        status, payload = request(f"/findings?since={revision}")
        assert status == 200
        assert payload["delta_base"] == revision
        assert payload["added"] == []
        assert payload["removed"] == []

    def test_findings_since_unknown_revision_degrades_to_full(self, http_service):
        service, request = http_service
        service.reconcile()
        expected = service.snapshot.report.all_findings()
        for since in ("9999", "bogus"):
            status, payload = request(f"/findings?since={since}")
            assert status == 200
            assert payload["delta_base"] is None
            assert payload["findings"] == expected


class TestFindingsDelta:
    """``?since=`` across real revisions: an on-disk edit produces a delta."""

    def _serve(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]

        def request(path):
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10) as response:
                return json.load(response)

        return server, request

    def test_edit_shows_up_as_added_findings(self, tmp_path):
        export_corpus(tmp_path, CHAIN_FILES)
        service = AnalysisService(corpus_dir=tmp_path,
                                  poll_seconds=0.05, debounce_seconds=0.01)
        server, request = self._serve(service)
        try:
            service.reconcile()
            base = service.snapshot.report.all_findings()
            # A second blocking-under-lock function: new findings, and the
            # append leaves every existing finding's location untouched.
            (tmp_path / "lib.c").write_text(CHAIN_LIB + """
int leaf_twin(void) {
    spin_lock_irqsave(&chain_lock);
    schedule();
    spin_unlock_irqrestore(&chain_lock);
    return 1;
}
""")
            service.reconcile()
            assert service.snapshot.revision == 2
            payload = request("/findings?since=1")
            assert payload["delta_base"] == 1
            assert payload["revision"] == 2
            assert payload["added"]
            assert all(f["function"] == "leaf_twin" for f in payload["added"])
            assert payload["removed"] == []
            assert payload["count"] == len(base) + len(payload["added"])
            # The reverse direction: reverting the edit removes them again.
            (tmp_path / "lib.c").write_text(CHAIN_LIB)
            service.reconcile()
            payload = request("/findings?since=2")
            assert payload["delta_base"] == 2
            assert payload["added"] == []
            assert all(f["function"] == "leaf_twin" for f in payload["removed"])
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_history_window_ages_out_oldest(self, monkeypatch):
        from repro.service import daemon

        monkeypatch.setattr(daemon, "FINDINGS_HISTORY_LIMIT", 2)
        service = AnalysisService(files=CHAIN_FILES)
        for _ in range(3):
            service.reconcile()
        assert service.findings_at(1) is None
        assert service.findings_at(2) is not None
        assert service.findings_at(3) is not None


class TestServiceWatchesDirectory:
    def test_edit_on_disk_triggers_incremental_pass(self, tmp_path):
        export_corpus(tmp_path, CHAIN_FILES)
        service = AnalysisService(corpus_dir=tmp_path,
                                  poll_seconds=0.05, debounce_seconds=0.01)
        try:
            service.reconcile()
            assert service.snapshot.revision == 1
            (tmp_path / "lib.c").write_text(
                CHAIN_LIB.replace("return 0;", "return 2;"))
            assert service.watcher.poll_once() is True
            snapshot = service.snapshot
            assert snapshot.revision == 2
            assert snapshot.stats.full_reparse is False
            assert snapshot.stats.dirty_sccs == 3
        finally:
            service.stop()
