"""Tests for the analysis service: incremental invalidation correctness,
parse-error isolation, corpus export/watch round-trips, cache eviction,
and the HTTP JSON API.

The invalidation tests assert two things at once: the *work* stays confined
(via the per-process solve/parse counters) and the *answer* stays exact
(reports byte-identical to a from-scratch analysis of the edited sources).
"""

from __future__ import annotations

import copy
import gc
import json
import sqlite3
import threading
import time
import urllib.error
import urllib.request
import weakref
from dataclasses import replace

import pytest
from reference import reference_report

from repro.dataflow.consts import CONST_SOLVE_COUNTS, reset_const_solve_counts
from repro.dataflow.interproc import SCC_SOLVE_COUNTS, reset_scc_solve_counts
from repro.engine import AnalysisEngine
from repro.engine.analyses import ShardReads
from repro.kernel.build import PARSE_COUNTS, reset_parse_counts
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.service import (
    AnalysisService,
    CorpusWatcher,
    IncrementalAnalyzer,
    export_corpus,
    load_corpus_dir,
)
from repro.service import incremental
from repro.service.api import make_server
from repro.service.store import PersistentStore

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
    """``report`` equals a fresh analyzer's and the from-scratch reference's."""
    assert_reports_identical(report, IncrementalAnalyzer(files=files).analyze())
    assert_reports_identical(report, reference_report(files))


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

    def test_body_edit_that_keeps_the_summary_resolves_one_scc(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        edited = edit(CHAIN_FILES, "lib.c", "return 0;", "return 1;")
        reset_counters()
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats

        # Work stays confined: one unit re-parsed in place, and only the
        # edited function re-solves.  Its summary comes out unchanged, so
        # no caller's key moves (early cutoff).
        assert stats.full_reparse is False
        assert dict(PARSE_COUNTS) == {"lib.c": 1}
        resolved = {name for scc in SCC_SOLVE_COUNTS for name in scc}
        assert resolved == {"leaf"}
        assert set(CONST_SOLVE_COUNTS) <= {"leaf"}
        assert stats.consts_solved == 1
        assert stats.dirty_sccs == 1
        assert stats.summaries_changed == 0
        # leaf keeps its signature and its summary, so no other unit's
        # shard reads anything that moved: each per-unit analysis keys and
        # re-runs lib.c's shard alone, and stackcheck, which reads only the
        # call graph and the summaries, keeps its shard.
        assert stats.shards_rerun_by_analysis == {
            "deputy": 1, "blockstop": 1, "errcheck": 1, "lockcheck": 1,
            "stackcheck": 0, "ccount": 1}
        assert stats.shards_rerun == 5
        assert stats.shard_keys_computed == 5
        assert stats.keyed_units == ["lib.c"]

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


# ---------------------------------------------------------------------------
# Early cutoff: a caller re-solves only when what its fixpoint reads about a
# callee moved — the callee's summary or its header annotations.  `relay`
# propagates everything `leaf` summarizes (its error returns, the lock it
# leaves held, whether it blocks, its stack depth) and passes a GFP_WAIT
# flag, so every edit below moves `relay`'s summary and `top`'s; `top`
# calls `relay` with interrupts off and discards its result, so each moved
# summary changes a finding or a metric.  `watcher` calls `bystander` and
# `schedule`, so no edit adds a node to the call graph.
# ---------------------------------------------------------------------------

CUTOFF_LIB = """
void spin_lock(int *lock);
void spin_unlock(int *lock);
void schedule(void) blocking;
static int dev_lock;
int leaf(unsigned int flags) {
    char pad[8];
    pad[0] = 0;
    spin_lock(&dev_lock);
    spin_unlock(&dev_lock);
    return 0;
}
int bystander(void) {
    return 7;
}
"""

CUTOFF_MID = """
int leaf(unsigned int flags);
int relay(void) {
    return leaf(16);
}
"""

CUTOFF_TOP = """
void local_irq_disable(void);
void local_irq_enable(void);
int relay(void);
int top(void) {
    local_irq_disable();
    relay();
    local_irq_enable();
    return 0;
}
"""

CUTOFF_OTHER = """
void schedule(void) blocking;
int bystander(void);
int watcher(void) {
    schedule();
    return bystander() + 1;
}
"""

CUTOFF_FILES = (CorpusFile("lib.c", CUTOFF_LIB),
                CorpusFile("mid.c", CUTOFF_MID),
                CorpusFile("top.c", CUTOFF_TOP),
                CorpusFile("other.c", CUTOFF_OTHER))

#: leaf returns with dev_lock held on some paths.
LOCK_LEFT_HELD = ("    spin_unlock(&dev_lock);\n",
                  "    if (flags > 100)\n        spin_unlock(&dev_lock);\n")

#: (label, edit to lib.c, functions whose summary moves, errcheck shards
#: re-run: every unit's when the error-returning set, its salt, moved).
SUMMARY_MOVING_EDITS = [
    ("error return", ("return 0;", "return -5;"), {"leaf", "relay"}, 4),
    ("lock left held", LOCK_LEFT_HELD, {"leaf", "relay", "top"}, 3),
    ("new blocking call", ("    pad[0] = 0;\n",
                           "    pad[0] = 0;\n    schedule();\n"),
     {"leaf", "relay", "top"}, 3),
    # leaf's own summary stays; relay reads the annotation through the
    # summary context's seed sets, not through leaf's summary.
    ("blocking_if_wait header", ("int leaf(unsigned int flags) {",
                                 "int leaf(unsigned int flags) "
                                 "blocking_if_wait {"),
     {"relay", "top"}, 3),
    ("bigger local array", ("char pad[8];", "char pad[64];"),
     {"leaf", "relay", "top"}, 3),
]


#: `m`'s indirect call resolves, by type, to every address-taken
#: `void (void)` function, and `m` already has an edge to `g` from a call
#: in a dead arm.  Storing `g` in the table makes the indirect call reach
#: `g`, which blocks, without adding an edge to the call graph.
INDIRECT_LIB = """
void schedule(void) blocking;
struct ops { void (*run)(void); };
static struct ops table;
void g(void) {
    schedule();
}
void quiet(void) {
}
void setup(void) {
    table.run = quiet;
}
"""

INDIRECT_USER = """
void g(void);
void local_irq_disable(void);
void local_irq_enable(void);
extern struct ops table;
void m(void) {
    if (0) {
        g();
    }
    table.run();
}
void top(void) {
    local_irq_disable();
    m();
    local_irq_enable();
}
"""


class TestEarlyCutoff:
    @pytest.mark.parametrize("change, moved, errcheck_reruns",
                             [case[1:] for case in SUMMARY_MOVING_EDITS],
                             ids=[case[0] for case in SUMMARY_MOVING_EDITS])
    def test_summary_moving_edit_resolves_its_callers(self, change, moved,
                                                      errcheck_reruns):
        analyzer = IncrementalAnalyzer(files=CUTOFF_FILES)
        before = analyzer.analyze()
        edited = edit(CUTOFF_FILES, "lib.c", *change)
        reset_counters()
        report = analyzer.analyze(edited)
        stats = analyzer.last_stats
        assert stats.full_reparse is False
        # leaf re-solves for its edit, relay because leaf's summary or
        # header moved, top because relay's summary did; the bystanders
        # keep theirs.
        resolved = {name for scc in SCC_SOLVE_COUNTS for name in scc}
        assert resolved == {"leaf", "relay", "top"}
        assert stats.dirty_sccs == 3
        assert stats.summaries_changed == len(moved)
        # Each caller's unit re-runs the shards that read callee
        # summaries; other.c's do not.
        assert stats.shards_rerun_by_analysis["lockcheck"] == 3
        assert stats.shards_rerun_by_analysis["errcheck"] == errcheck_reruns
        # The moved summaries show in the report, so a caller served stale
        # would not match a cold analysis.
        assert normalized(report)["analyses"] != normalized(before)["analyses"]
        assert_matches_cold(report, edited)

    def test_points_to_change_on_an_existing_edge_resolves_the_caller(self):
        files = (CorpusFile("lib.c", INDIRECT_LIB),
                 CorpusFile("user.c", INDIRECT_USER))
        analyzer = IncrementalAnalyzer(files=files)
        analyzer.analyze()
        edges = analyzer.artifacts.graph.edges["m"]
        edited = edit(files, "lib.c", "    table.run = quiet;\n",
                      "    table.run = quiet;\n    table.run = g;\n")
        report = analyzer.analyze(edited)
        # The edge set, so the condensation, is the last pass's; `m`'s key
        # moved with its resolved indirect callees.
        assert "condensation" not in analyzer.last_stats.rebuilt_artifacts
        assert analyzer.artifacts.graph.edges["m"] == edges
        assert "m" in analyzer.last_stats.dirty_functions
        assert analyzer.artifacts.summaries["m"].may_block
        assert_matches_cold(report, edited)

    def test_moved_summaries_are_exactly_the_changed_ones(self):
        analyzer = IncrementalAnalyzer(files=CUTOFF_FILES)
        analyzer.analyze()
        assert analyzer.last_stats.summaries_changed == len(
            analyzer.artifacts.summaries)
        for _, change, moved, _ in SUMMARY_MOVING_EDITS:
            # The edit, then its revert: each pass counts the functions
            # whose summary differs from the pass before, new ones included.
            for files in (edit(CUTOFF_FILES, "lib.c", *change), CUTOFF_FILES):
                previous = dict(analyzer.artifacts.summaries)
                analyzer.analyze(files)
                current = analyzer.artifacts.summaries
                changed = {name for name in current
                           if current[name] != previous.get(name)}
                assert changed == moved
                assert analyzer.last_stats.summaries_changed == len(moved)

    def test_noop_pass_computes_no_key_and_no_summary_hash(self, monkeypatch):
        analyzer = IncrementalAnalyzer(files=CUTOFF_FILES)
        analyzer.analyze()
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        for name in ("scc_fingerprints", "scc_local_key", "_complete_key",
                     "_summary_hash"):
            monkeypatch.setattr(incremental, name,
                                counted(name, getattr(incremental, name)))
        analyzer.analyze(CUTOFF_FILES)
        assert calls == []
        assert analyzer.last_stats.summaries_changed == 0

        # A body edit that keeps leaf's summary re-keys and re-hashes
        # leaf's component alone.
        analyzer.analyze(edit(CUTOFF_FILES, "lib.c", "pad[0] = 0;",
                              "pad[0] = 1;"))
        assert sorted(calls) == ["_complete_key", "_summary_hash",
                                 "scc_local_key"]
        stats = analyzer.last_stats
        assert (stats.dirty_sccs, stats.summaries_changed) == (1, 0)

    def test_restart_after_offline_summary_moving_edit(self, tmp_path):
        store = PersistentStore(tmp_path)
        IncrementalAnalyzer(files=CUTOFF_FILES, store=store).analyze()
        store.close()
        edited = edit(CUTOFF_FILES, "lib.c", *LOCK_LEFT_HELD)
        store = PersistentStore(tmp_path)
        warm = IncrementalAnalyzer(files=edited, store=store)
        reset_counters()
        report = warm.analyze()
        stats = warm.last_stats
        # Keys are built bottom-up from the stored rows: leaf's moved with
        # its body, relay's and top's with leaf's and relay's summaries;
        # the bystanders' match their rows.
        resolved = {name for scc in SCC_SOLVE_COUNTS for name in scc}
        assert resolved == {"leaf", "relay", "top"}
        assert stats.dirty_sccs == 3
        assert stats.store_hits > 0
        assert_matches_cold(report, edited)
        store.close()

    def test_store_failing_mid_wave_fails_the_pass_and_commits_nothing(
            self, tmp_path, monkeypatch):
        service = AnalysisService(files=CUTOFF_FILES, store_dir=tmp_path)
        server, request = _serve(service)
        try:
            service.request_reconcile()
            analyzer = service.analyzer
            last, memo = analyzer._last, analyzer._scc_store
            rows = service.store.entry_count("scc")
            get_many = service.store.get_many
            scc_gets = []

            def failing_get_many(space, keys):
                if space == "scc":
                    scc_gets.append(keys)
                    if len(scc_gets) == 2:
                        raise sqlite3.OperationalError("disk I/O error")
                return get_many(space, keys)

            monkeypatch.setattr(service.store, "get_many", failing_get_many)
            edited = edit(CUTOFF_FILES, "lib.c", *LOCK_LEFT_HELD)
            analyzer.files = edited
            reset_counters()
            with pytest.raises(sqlite3.OperationalError):
                service.request_reconcile()
            # The wave loop had solved leaf and was keying relay.
            assert {name for scc in SCC_SOLVE_COUNTS for name in scc} == {
                "leaf"}
            assert service.failed_passes == 1
            status, health = request("/health")
            assert (status, health["status"]) == (200, "degraded")
            assert health["last_error"]["type"] == "OperationalError"
            # Nothing of the failed pass is committed: no memo, no key, no
            # summary hash, no store row.
            assert analyzer._last is last
            assert analyzer._scc_store is memo
            assert service.store.entry_count("scc") == rows

            monkeypatch.setattr(service.store, "get_many", get_many)
            snapshot, _ = service.request_reconcile()
            assert service.status() == "ok"
            assert snapshot.stats.dirty_sccs == 3
            assert_matches_cold(snapshot.report, edited)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            service.store.close()


# ---------------------------------------------------------------------------
# Reuse of corpus-wide artifacts: a pass keeps the last pass's call graph,
# points-to, condensation, IRQ handlers, annotations, summary context and
# blocking/error-return sets whenever their inputs did not move.  The
# script below moves each input in turn (and some back), and every pass
# must still build exactly what a fresh analyzer builds.
# ---------------------------------------------------------------------------

DEVICE_OPS = """
struct drv_ops {
    int (*handler)(int v);
};
static struct drv_ops drv_table;
int request_irq(int irq, void *handler, void *dev);
int drv_first(int v) {
    return v;
}
int drv_second(int v) {
    return v + 1;
}
int drv_setup(void) {
    drv_table.handler = drv_first;
    return 0;
}
int drv_dispatch(int v) {
    return drv_table.handler(v);
}
"""

REUSE_FILES = CHAIN_FILES + (CorpusFile("fill.c", FILL_LIB),
                             CorpusFile("user.c", FILL_CALLER),
                             CorpusFile("drv.c", DEVICE_OPS))

EXTRA_FUNCTION = "int extra(int v) {\n    return v + 1;\n}\n"
DUPLICATE_LONE = "int lone(void) {\n    return 1;\n}\n"

#: (label, (filename, old, new) or None for a no-op), applied in order.
REUSE_EDITS = (
    ("noop", None),
    ("literal bump", ("lib.c", "return 7;", "return 8;")),
    ("add call", ("top.c", "return mid() + CHAIN_BONUS;",
                  "return mid() + lone() + CHAIN_BONUS;")),
    ("remove call", ("top.c", "return mid() + lone() + CHAIN_BONUS;",
                     "return mid() + CHAIN_BONUS;")),
    ("store in field", ("drv.c", "    drv_table.handler = drv_first;\n",
                        "    drv_table.handler = drv_first;\n"
                        "    drv_table.handler = &drv_second;\n")),
    ("irq via cast", ("drv.c", "    return 0;\n}\nint drv_dispatch",
                      "    request_irq(3, (void *) drv_second, 0);\n"
                      "    return 0;\n}\nint drv_dispatch")),
    ("header annotations", ("lib.c", "int lone(void) {",
                            "int lone(void) blocking errcodes(5) {")),
    ("signature", ("fill.c",) + FILL_COUNT_EDIT),
    # top.c's new prototype inherits lib.c's `blocking` when linked; then
    # lib.c's prototype drops it, and only lib.c's own text changed.
    ("inheriting prototype", ("top.c", "int mid(void);",
                              "int mid(void);\nvoid schedule(void);")),
    ("inherited annotation", ("lib.c", "void schedule(void) blocking;",
                              "void schedule(void);")),
    ("append", ("lib.c", "int lone(void)", EXTRA_FUNCTION + "int lone(void)")),
    ("remove appended", ("lib.c", EXTRA_FUNCTION + "int lone(void)",
                         "int lone(void)")),
    ("line shift", ("mid.c", "int leaf(void);", "\nint leaf(void);")),
    ("break", ("mid.c", "return leaf() + 1;", "return leaf( + 1;")),
    ("fix", ("mid.c", "return leaf( + 1;", "return leaf() + 1;")),
    ("duplicate definition", ("top.c", "int top(void) {",
                              DUPLICATE_LONE + "int top(void) {")),
    ("remove duplicate", ("top.c", DUPLICATE_LONE + "int top(void) {",
                          "int top(void) {")),
    ("macro", ("lib.c", "#define CHAIN_BONUS 3", "#define CHAIN_BONUS 4")),
)

GRAPH_ARTIFACTS = {"callgraph", "pointsto", "condensation"}


def artifact_fields(artifacts) -> dict:
    """Every shared artifact a pass may reuse, in comparable form."""
    graph = artifacts.graph
    condensation = artifacts.condensation
    return {
        "graph": (graph.nodes, graph.edges, graph.call_sites),
        "pointsto": artifacts.pointsto,
        "condensation": (condensation.sccs, condensation.waves,
                         condensation.scc_callees),
        "blocking": artifacts.blocking,
        "irq_handlers": artifacts.irq_handlers,
        "error_returning": artifacts.error_returning,
        "annotations": {name: str(annotations) for name, annotations
                        in artifacts.annotations.items()},
        "summaries": artifacts.summaries,
        "consts": artifacts.consts,
        "unit_functions": artifacts.unit_functions,
    }


class TestArtifactReuse:
    def test_every_pass_builds_what_a_fresh_analyzer_builds(self):
        files = REUSE_FILES
        analyzer = IncrementalAnalyzer(files=files)
        analyzer.analyze()
        assert analyzer.last_stats.rebuilt_artifacts == sorted(
            GRAPH_ARTIFACTS | {"irq_handlers", "annotations", "summary_context",
                               "blocking", "error_returning"})
        for label, change in REUSE_EDITS:
            last_good = files
            if change is not None:
                files = edit(files, *change)
            report = analyzer.analyze(files)
            rebuilt = set(analyzer.last_stats.rebuilt_artifacts)
            artifacts = analyzer.artifacts
            if label == "break":
                # A broken unit keeps serving its last good parse, which a
                # fresh analyzer only has after seeing the good source.
                fresh = IncrementalAnalyzer(files=last_good)
                fresh.analyze()
                assert_reports_identical(report, fresh.analyze(files))
                served = [f for f in report.all_findings()
                          if f["analysis"] != "diagnostics"]
                assert served == reference_report(last_good).all_findings(), label
            else:
                fresh = IncrementalAnalyzer(files=files)
                fresh.analyze()
                assert_matches_cold(report, files)
            assert artifact_fields(artifacts) == artifact_fields(
                fresh.artifacts), label
            assert all(env.program is artifacts.program
                       for env in artifacts.type_envs.values()), label
            if label in ("noop", "break"):
                assert rebuilt == set(), label
            if label in ("literal bump", "fix"):
                assert not rebuilt & GRAPH_ARTIFACTS, label
            if label in ("add call", "store in field", "irq via cast",
                         "append"):
                assert GRAPH_ARTIFACTS <= rebuilt, label

    def test_stats_dict_lists_rebuilt_artifacts(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        analyzer.analyze(CHAIN_FILES)
        assert analyzer.last_stats.to_dict()["rebuilt_artifacts"] == []


class TestCarriedState:
    def test_carried_maps_hold_only_the_current_corpus(self, monkeypatch):
        service = AnalysisService(files=CHAIN_FILES)
        analyzer = service.analyzer
        # Every linked program, a failed pass's included.
        programs = []
        link = analyzer._link

        def tracked_link():
            program, link_errors = link()
            programs.append(weakref.ref(program))
            return program, link_errors

        monkeypatch.setattr(analyzer, "_link", tracked_link)
        service.request_reconcile()
        files = CHAIN_FILES
        appended = []
        literal = 7
        for step in range(40):
            kind = step % 5
            if step == 21:
                files = edit(files, "lib.c", "#define CHAIN_BONUS 3",
                             "#define CHAIN_BONUS 5")
            elif kind == 0:
                name = f"grown{step}"
                appended.append(name)
                files = edit(files, "mid.c", "int mid(void) {",
                             f"int {name}(int v) {{\n    return v + {step};\n}}"
                             "\nint mid(void) {")
            elif kind == 1:
                name = appended.pop(0)
                source = next(f.source for f in files if f.filename == "mid.c")
                start = source.index(f"int {name}(")
                end = source.index("}\n", start) + 2
                files = edit(files, "mid.c", source[start:end], "")
            elif kind == 2:
                files = edit(files, "top.c", "return mid() + CHAIN_BONUS;",
                             "return mid( + CHAIN_BONUS;")
            elif kind == 3:
                files = edit(files, "top.c", "return mid( + CHAIN_BONUS;",
                             "return mid() + CHAIN_BONUS;")
            else:
                files = edit(files, "lib.c", f"return {literal};",
                             f"return {literal + 1};")
                literal += 1
            analyzer.files = files
            if step == 14:
                # A pass that raises: neither the failure the service keeps
                # nor the analyzer may hold on to its program.
                _fail_once(monkeypatch, service)
                with pytest.raises(RuntimeError):
                    service.request_reconcile()
            service.request_reconcile()
        assert service.failed_passes == 1
        # 42 passes, less the 8 breaks and the 8 fixes: a broken unit keeps
        # serving its last good parse, and a fix back to that text serves
        # it again, so those passes re-parse no unit and carry the last
        # pass's link.  So does the pass with no edit below.
        assert len(programs) == 26
        snapshot, _ = service.request_reconcile()
        assert len(programs) == 26
        assert_matches_cold(snapshot.report, files)

        artifacts = analyzer.artifacts
        program = artifacts.program
        functions = set(program.functions)
        state = analyzer._last
        assert set(state.records) == functions
        assert set(analyzer._consts_store) == functions
        assert set(analyzer._scc_store) == set(state.scc_keys)
        assert len(state.scc_keys) == len(artifacts.condensation.sccs)
        stats = analyzer.last_stats
        assert len(analyzer._shard_store) == (stats.shards_rerun
                                              + stats.shards_reused)
        assert all(record.env.program is program
                   for record in state.records.values())
        # One carried key, payload and report per current unit and analysis.
        assert list(state.merged) == list(analyzer.registry)
        units = [filename for filename, functions
                 in artifacts.unit_functions.items() if functions]
        for name, merged in state.merged.items():
            shards = units if analyzer.registry[name].per_unit else [""]
            assert list(merged.keys) == shards, name
            assert len(merged.payloads) == len(shards), name
            assert snapshot.report.analyses[name] is merged.report, name
        assert set(analyzer._shard_store) == {
            key for merged in state.merged.values()
            for key in merged.keys.values()}

        # Carried type environments, the reused summary context and the
        # service's record of the failure point at the current program only:
        # no earlier pass's program stays alive.
        del artifacts, program, state, snapshot
        gc.collect()
        assert [ref() for ref in programs[:-1]] == [None] * (len(programs) - 1)


# ---------------------------------------------------------------------------
# The carried-state audit.  A pass starts from the last pass's shard keys and
# merged reports and recomputes only what an invalidation rule names: a
# re-parsed unit, a moved signature, SCC key, salt or call graph, a rebuilt
# merge input.  After every edit kind, each carried key must equal the key
# computed from scratch by the formula below (the per-unit one kept
# verbatim from before keys were carried), each carried report a fresh
# merge of the pass's payloads, and the report a fresh analyzer's.
# ---------------------------------------------------------------------------

#: REUSE_EDITS with an edit that moves `lone`'s summary once `top` calls it
#: (so `top`'s SCC key and the error-returning set move) and, last, a
#: reordered corpus.
AUDIT_EDITS = (REUSE_EDITS[:3]
               + (("error return", ("lib.c", "return 8;", "return -8;")),)
               + REUSE_EDITS[3:] + (("reorder", None),))


def reference_shard_key(name, filename, functions, records, outside,
                        globals_fp, salt):
    parts = [name, filename, globals_fp, salt]
    for function in functions:
        parts.append(f"{function}={records[function].loc_hash}")
        parts.append(outside.get(function, ""))
    return incremental._sha("\x00".join(parts))


def reference_signatures_read(records):
    signature = {name: f"{name}:{record.sig_hash}"
                 for name, record in records.items()}
    return {name: "\x00".join([signature.get(ref, ref)
                               for ref in record.referenced])
            for name, record in records.items()}


def reference_keys(analyzer):
    """Every shard key of the last pass, computed from its state alone."""
    state = analyzer._last
    artifacts = state.artifacts
    scc_key_of = {function: state.scc_keys[index] for index, scc
                  in enumerate(artifacts.condensation.sccs)
                  for function in scc}
    outside_of = {
        ShardReads.CALLEE_SCC_KEYS: scc_key_of,
        ShardReads.REFERENCED_SIGNATURES:
            reference_signatures_read(state.records),
        ShardReads.NOTHING: {}}
    keys = {}
    for name, analysis in analyzer.registry.items():
        salt = analysis.shard_salt(artifacts)
        if analysis.per_unit:
            keys[name] = {
                filename: reference_shard_key(
                    name, filename, functions, state.records,
                    outside_of[analysis.shard_reads], state.globals_fp, salt)
                for filename, functions in artifacts.unit_functions.items()
                if functions}
        else:
            keys[name] = {"": incremental._sha("\x00".join(
                [name, state.globals_fp, salt, state.callgraph_fp,
                 *sorted(f"{function}:{digest}" for function, digest
                         in state.summary_hashes.items())]))}
    return keys


class TestCarriedStateAudit:
    def test_every_carried_key_and_report_is_what_a_fresh_pass_computes(
            self):
        files = REUSE_FILES
        analyzer = IncrementalAnalyzer(files=files)
        for label, change in (("cold", None),) + AUDIT_EDITS:
            last_good = files
            if label == "reorder":
                files = files[-1:] + files[:-1]
            elif change is not None:
                files = edit(files, *change)
            report = (analyzer.analyze(files) if label != "cold"
                      else analyzer.analyze())
            if label == "break":
                served = [f for f in report.all_findings()
                          if f["analysis"] != "diagnostics"]
                assert served == reference_report(last_good).all_findings()
            else:
                assert_reports_identical(report, reference_report(files))
            fresh = IncrementalAnalyzer(files=files)
            if label == "break":
                fresh.analyze(last_good)
            assert_reports_identical(report, fresh.analyze(files))

            state = analyzer._last
            keys = {name: merged.keys for name, merged in state.merged.items()}
            assert keys == reference_keys(analyzer), label
            assert keys == {name: merged.keys for name, merged
                            in fresh._last.merged.items()}, label
            for name, merged in state.merged.items():
                remerged = analyzer.registry[name].merge(state.artifacts,
                                                         merged.payloads)
                assert remerged.to_dict() == merged.report.to_dict(), (
                    label, name)
                assert report.analyses[name] is merged.report
            stats = analyzer.last_stats
            if label in ("noop", "break"):
                assert (stats.shard_keys_computed,
                        stats.analyses_merged) == (0, 0), label
            if label == "literal bump":
                assert stats.keyed_units == ["lib.c"]
                assert stats.shard_keys_computed == 5
        assert analyzer.last_stats.full_reparse is True


class TestKernelCorpusEquivalence:
    def test_cold_pass_matches_batch_engine(self):
        incremental = IncrementalAnalyzer().analyze()
        batch = AnalysisEngine(files=KERNEL_FILES, tolerant=True).run(jobs=1)
        assert_reports_identical(incremental, batch)
        assert_reports_identical(incremental, reference_report(KERNEL_FILES))

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

    def test_malformed_literal_is_a_diagnostic_not_a_failed_pass(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        baseline = analyzer.analyze()
        broken = edit(CHAIN_FILES, "mid.c", "return leaf() + 1;",
                      "int x = 09; return leaf() + 1;")
        report = analyzer.analyze(broken)
        diagnostics = report.analyses["diagnostics"].findings
        assert [finding["file"] for finding in diagnostics] == ["mid.c"]
        assert "invalid integer literal" in diagnostics[0]["message"]
        assert ([f for f in report.all_findings()
                 if f["analysis"] != "diagnostics"] == baseline.all_findings())

        fixed = analyzer.analyze(CHAIN_FILES)
        assert_matches_cold(fixed, CHAIN_FILES)

    def test_fix_back_to_the_last_good_text_reparses_nothing(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        analyzer.analyze(edit(CHAIN_FILES, "mid.c", "return leaf() + 1;",
                              "return leaf( + 1;"))
        assert analyzer.last_stats.full_reparse is False
        assert_fix_carries_the_last_pass(analyzer, CHAIN_FILES)

    def test_fix_after_a_break_that_fell_back_to_a_full_parse(self):
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES)
        analyzer.analyze()
        # The macro edit forces a full parse, which serves the broken unit
        # from its last good source.
        macro = edit(CHAIN_FILES, "lib.c", "#define CHAIN_BONUS 3",
                     "#define CHAIN_BONUS 5")
        analyzer.analyze(edit(macro, "mid.c", "return leaf() + 1;",
                              "return leaf( + 1;"))
        assert analyzer.last_stats.full_reparse is True
        assert analyzer.last_stats.parse_errors == 1
        assert_fix_carries_the_last_pass(analyzer, macro)


def assert_fix_carries_the_last_pass(analyzer, fixed):
    """A broken unit serves its last good parse, so the fix back to that
    text parses, keys and merges nothing, and clears the diagnostic."""
    report = analyzer.analyze(fixed)
    stats = analyzer.last_stats
    assert (stats.parsed_units, stats.shard_keys_computed,
            stats.analyses_merged, stats.parse_errors) == (0, 0, 0, 0)
    assert "diagnostics" not in report.analyses
    assert_matches_cold(report, fixed)


class TestServiceNeverForks:
    def test_pass_succeeds_with_fork_refused(self, monkeypatch):
        import multiprocessing.process
        import os

        def refuse(*args):
            raise AssertionError("a service pass started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        service = AnalysisService(files=CHAIN_FILES)
        snapshot, _ = service.request_reconcile()
        assert snapshot.report.perf["scheduler"]["mode"] == "serial"
        assert_matches_cold(snapshot.report, CHAIN_FILES)


# ---------------------------------------------------------------------------
# Store eviction
# ---------------------------------------------------------------------------

class TestCacheEviction:
    def test_lru_eviction_respects_budget(self, tmp_path):
        store = PersistentStore(tmp_path, max_mb=0.001)
        for index in range(4):
            store.put("shard", f"row-{index}", b"x" * 2048)
        assert store.evictions >= 3
        assert store.total_bytes() <= store.max_bytes
        store.close()

    def test_no_budget_means_no_eviction(self, tmp_path):
        store = PersistentStore(tmp_path)
        for index in range(4):
            store.put("shard", f"row-{index}", b"x" * 2048)
        assert store.evictions == 0
        assert store.entry_count("shard") == 4
        store.close()


def _atimes(store):
    with store._lock:
        return dict(store._conn.execute(
            "SELECT space || ':' || key, atime FROM entries").fetchall())


class TestStoreLiveSet:
    """Rows served from the analyzer's memory are dated lazily."""

    def test_noop_pass_writes_nothing_to_an_unbounded_store(self, tmp_path):
        store = PersistentStore(tmp_path)
        analyzer = IncrementalAnalyzer(files=CHAIN_FILES, store=store)
        analyzer.analyze()
        written = _atimes(store)
        time.sleep(0.02)
        analyzer.analyze(CHAIN_FILES)
        assert analyzer.last_stats.store_writes == 0
        assert _atimes(store) == written
        store.close()

    def test_close_dates_the_live_set(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_many("scc", [("a", 1), ("b", 2)])
        written = _atimes(store)
        time.sleep(0.02)
        store.touch("scc", ["a"])
        assert _atimes(store) == written
        store.close()
        reopened = PersistentStore(tmp_path)
        dated = _atimes(reopened)
        assert dated["scc:a"] > written["scc:a"]
        assert dated["scc:b"] == written["scc:b"]
        reopened.close()


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

def _serve(service):
    """Serve ``service`` on an ephemeral port; returns the server and a
    ``request(path, method)`` that answers ``(status, JSON payload)``."""
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]

    def request(path, method="GET"):
        req = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            return error.code, json.load(error)

    return server, request


@pytest.fixture(scope="class")
def http_service():
    service = AnalysisService(files=CHAIN_FILES)
    server, request = _serve(service)
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
        assert payload["stats"]["summaries_changed"] == 0

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
            assert snapshot.stats.dirty_sccs == 1
        finally:
            service.stop()


# ---------------------------------------------------------------------------
# A pass that raises is reported, not lost
# ---------------------------------------------------------------------------

def _fail_once(monkeypatch, service, analysis="lockcheck"):
    """Make ``analysis``'s next shard raise; later shards run normally."""
    adapter = service.analyzer.registry[analysis]
    run_shard = adapter.run_shard
    calls = []

    def failing(artifacts, functions):
        calls.append(functions)
        if len(calls) == 1:
            raise RuntimeError("injected shard failure")
        return run_shard(artifacts, functions)

    monkeypatch.setattr(adapter, "run_shard", failing)
    return calls


def _cold_findings(files):
    return reference_report(files).all_findings()


class TestFailingPass:
    def test_failing_edit_pass_answers_500_and_next_pass_recovers(
            self, tmp_path, monkeypatch):
        export_corpus(tmp_path, CHAIN_FILES)
        service = AnalysisService(corpus_dir=tmp_path)
        server, request = _serve(service)
        try:
            service.reconcile()
            revision = service.snapshot.revision
            (tmp_path / "lib.c").write_text(
                CHAIN_LIB.replace("return 0;", "return 3;"))
            calls = _fail_once(monkeypatch, service)

            status, payload = request("/analyze", method="POST")
            assert status == 500
            assert payload["status"] == "failed"
            assert payload["error"] == {"type": "RuntimeError",
                                        "message": "injected shard failure"}
            assert calls

            # The last good snapshot keeps serving; the failure is counted
            # and the service reads degraded until a pass succeeds.
            status, stats = request("/stats")
            assert status == 200
            assert stats["status"] == "degraded"
            assert stats["revision"] == revision
            assert stats["failed_passes"] == 1
            assert stats["last_error"]["type"] == "RuntimeError"
            assert stats["last_error"]["message"] == "injected shard failure"
            status, health = request("/health")
            assert (status, health["status"]) == (200, "degraded")
            assert health["failed_passes"] == 1
            assert health["last_error"] == stats["last_error"]

            status, payload = request("/analyze", method="POST")
            assert status == 200
            assert payload["status"] == "ok"
            status, served = request("/findings")
            assert status == 200
            assert served["findings"] == _cold_findings(
                load_corpus_dir(tmp_path))
            status, stats = request("/stats")
            assert (stats["status"], stats["failed_passes"]) == ("ok", 1)
            status, health = request("/health")
            assert (status, health["status"]) == (200, "ok")
            assert "last_error" not in health
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_vanished_corpus_file_answers_500_until_restored(self, tmp_path):
        export_corpus(tmp_path, CHAIN_FILES)
        service = AnalysisService(corpus_dir=tmp_path)
        server, request = _serve(service)
        try:
            service.reconcile()
            revision = service.snapshot.revision
            status, before = request("/findings")
            assert status == 200
            # The manifest still lists mid.c, so reading the corpus fails.
            (tmp_path / "mid.c").unlink()

            status, payload = request("/analyze", method="POST")
            assert status == 500
            assert payload["status"] == "failed"
            assert payload["error"]["type"] == "FileNotFoundError"
            assert "mid.c" in payload["error"]["message"]

            status, stats = request("/stats")
            assert (status, stats["status"], stats["failed_passes"]) == (
                200, "degraded", 1)
            assert stats["revision"] == revision
            assert stats["last_error"]["type"] == "FileNotFoundError"
            status, health = request("/health")
            assert (status, health["status"]) == (200, "degraded")
            assert health["last_error"] == stats["last_error"]
            status, served = request("/findings")
            assert status == 200
            assert served == before

            (tmp_path / "mid.c").write_text(CHAIN_MID)
            status, payload = request("/analyze", method="POST")
            assert (status, payload["status"]) == (200, "ok")
            status, served = request("/findings")
            assert served["revision"] > revision
            assert served["findings"] == _cold_findings(CHAIN_FILES)
            status, health = request("/health")
            assert (status, health["status"]) == (200, "ok")
            assert request("/stats")[1]["failed_passes"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_failing_initial_pass_reports_failed_health(self, monkeypatch):
        service = AnalysisService(files=CHAIN_FILES)
        server, request = _serve(service)
        try:
            _fail_once(monkeypatch, service)
            status, payload = request("/analyze", method="POST")
            assert status == 500
            assert payload["error"]["type"] == "RuntimeError"

            status, health = request("/health")
            assert status == 503
            assert health["status"] == "failed"
            assert health["failed_passes"] == 1
            assert health["last_error"]["message"] == "injected shard failure"
            status, stats = request("/stats")
            assert (status, stats["status"], stats["failed_passes"]) == (
                200, "failed", 1)
            assert request("/findings")[0] == 503

            status, payload = request("/analyze", method="POST")
            assert status == 200
            assert request("/health")[0] == 200
            assert request("/findings")[1]["findings"] == _cold_findings(
                CHAIN_FILES)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_failing_background_initial_pass_is_recorded(self, monkeypatch):
        service = AnalysisService(files=CHAIN_FILES)
        _fail_once(monkeypatch, service)
        service.start()
        try:
            for _ in range(3000):
                if service.failed_passes:
                    break
                threading.Event().wait(0.01)
            assert service.failed_passes == 1
            assert service.status() == "failed"
            assert service.snapshot is None
            snapshot, _ = service.request_reconcile()
            assert snapshot.report.all_findings() == _cold_findings(CHAIN_FILES)
            assert service.status() == "ok"
        finally:
            service.stop()

    def test_coalesced_request_gets_the_failure_of_its_pass(self, monkeypatch):
        service = AnalysisService(files=CHAIN_FILES)
        service.request_reconcile()
        # The first pass is held in flight; the queued pass, which the
        # third request rides on, raises.
        entered = threading.Event()
        release = threading.Event()
        analyze = service.analyzer.analyze
        calls = []

        def analyze_then_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=60)
                return analyze(*args, **kwargs)
            raise RuntimeError("queued pass failed")

        gate = service._gate
        gate_wait = gate.wait
        waiting = [0]

        def counting_wait(timeout=None):
            waiting[0] += 1  # runs with the gate's lock held
            try:
                return gate_wait(timeout)
            finally:
                waiting[0] -= 1

        monkeypatch.setattr(service.analyzer, "analyze", analyze_then_fail)
        monkeypatch.setattr(gate, "wait", counting_wait)
        outcomes = []

        def call():
            try:
                snapshot, coalesced = service.request_reconcile()
                outcomes.append(("ok", coalesced))
            except RuntimeError as error:
                outcomes.append((str(error), None))

        threads = [threading.Thread(target=call) for _ in range(3)]
        threads[0].start()
        assert entered.wait(timeout=60)
        for thread in threads[1:]:
            thread.start()
        for _ in range(6000):
            with gate:
                if waiting[0] == 2:
                    break
            time.sleep(0.01)
        with gate:
            assert waiting[0] == 2
        release.set()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert sorted(outcomes, key=str) == sorted(
            [("ok", False), ("queued pass failed", None),
             ("queued pass failed", None)], key=str)
        assert len(calls) == 2
        assert service.failed_passes == 1
        assert service.status() == "degraded"
