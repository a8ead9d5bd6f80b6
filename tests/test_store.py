"""Tests for the persistent warm-start store and its service wiring.

The store's contract: values round-trip by (space, key); the LRU sweep
bounds the file; a version bump purges stale artifacts wholesale; and a
*fresh* analyzer pointed at a filled store re-solves nothing on an
unchanged corpus while producing byte-identical findings — the restarted
``serve`` scenario.  The coalescing tests cover the reconcile gate that
keeps concurrent ``POST /analyze`` bursts from stacking redundant passes.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
import time

import pytest
from reference import reference_report

from repro.kernel.corpus import KERNEL_FILES
from repro.service import AnalysisService, IncrementalAnalyzer
from repro.service.store import PersistentStore


class TestPersistentStore:
    def test_round_trip_and_miss(self, tmp_path):
        store = PersistentStore(tmp_path)
        assert store.get("consts", "k1") is None
        store.put("consts", "k1", {"facts": [1, 2, 3]})
        assert store.get("consts", "k1") == {"facts": [1, 2, 3]}
        # Spaces partition the keyspace.
        assert store.get("scc", "k1") is None
        assert store.entry_count("consts") == 1
        assert store.entry_count("scc") == 0
        store.close()

    def test_none_values_distinguishable_when_wrapped(self, tmp_path):
        # Callers that must store None (facts_of returns None for
        # branchless functions) wrap values in 1-tuples; the store itself
        # faithfully returns whatever object was put.
        store = PersistentStore(tmp_path)
        store.put("consts", "k", (None,))
        assert store.get("consts", "k") == (None,)
        store.close()

    def test_reopen_persists(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put("shard", "k", [1, 2])
        store.close()
        reopened = PersistentStore(tmp_path)
        assert reopened.get("shard", "k") == [1, 2]
        reopened.close()

    def test_lru_eviction_bounds_size(self, tmp_path):
        store = PersistentStore(tmp_path, max_mb=0.001)  # ~1 KB
        blob = "x" * 300
        for index in range(20):
            store.put("scc", f"k{index}", blob)
        assert store.total_bytes() <= 1024
        assert store.evictions > 0
        # Newest entries survive; the oldest were swept.
        assert store.get("scc", "k19") == blob
        assert store.get("scc", "k0") is None
        store.close()

    def test_touch_refreshes_lru_clock(self, tmp_path):
        store = PersistentStore(tmp_path, max_mb=0.001)
        blob = "x" * 300
        store.put("scc", "keep", blob)
        time.sleep(0.02)
        store.put("scc", "other", blob)
        time.sleep(0.02)
        store.touch("scc", ["keep"])
        time.sleep(0.02)
        # Push the file just past the cap: the sweep takes the oldest
        # atime, which the touch moved from "keep" onto "other".
        store.put("scc", "fill0", blob)
        store.put("scc", "fill1", blob)
        assert store.evictions > 0
        assert store.get("scc", "keep") == blob
        assert store.get("scc", "other") is None
        store.close()

    def test_hits_refresh_lru_clock_in_one_batch(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_many("scc", [("a", 1), ("b", 2)])

        def atimes():
            with store._lock:
                return dict(store._conn.execute(
                    "SELECT key, atime FROM entries").fetchall())

        written = atimes()
        time.sleep(0.02)
        assert store.get("scc", "a") == 1
        assert store.get("scc", "b") == 2
        # A hit writes nothing by itself ...
        assert atimes() == written
        # ... the next batched touch refreshes every queued hit with it.
        store.touch("consts", [])
        refreshed = atimes()
        assert all(refreshed[key] > written[key] for key in ("a", "b"))
        store.close()

    def test_concurrent_hits_and_touches_keep_counts(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put_many("scc", [(f"k{index}", index) for index in range(50)])
        errors = []

        def reader(offset):
            try:
                for step in range(200):
                    index = (step + offset) % 50
                    assert store.get("scc", f"k{index}") == index
                    if step % 20 == 0:
                        store.touch("consts", [])
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert store.hits == 800
        store.touch("consts", [])
        assert store._queued_hits == []
        store.close()

    def test_close_flushes_queued_hits(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put("scc", "a", 1)
        with store._lock:
            written = store._conn.execute(
                "SELECT atime FROM entries").fetchone()[0]
        time.sleep(0.02)
        store.get("scc", "a")
        store.close()
        reopened = PersistentStore(tmp_path)
        with reopened._lock:
            assert reopened._conn.execute(
                "SELECT atime FROM entries").fetchone()[0] > written
        reopened.close()

    def test_version_mismatch_purges(self, tmp_path, monkeypatch):
        # The version row holds the writing code's source digest: a store
        # written by any other code is purged when opened.
        store = PersistentStore(tmp_path)
        store.put("consts", "k", "v")
        store.close()
        monkeypatch.setattr("repro.service.store.source_digest",
                            lambda: "0" * 32)
        purged = PersistentStore(tmp_path)
        assert purged.get("consts", "k") is None
        assert purged.entry_count() == 0
        purged.close()

    def test_corrupt_row_treated_as_miss(self, tmp_path):
        store = PersistentStore(tmp_path)
        store.put("consts", "k", "v")
        with store._lock:
            store._conn.execute(
                "UPDATE entries SET value = ? WHERE key = 'k'",
                (b"not a pickle",))
            store._conn.commit()
        assert store.get("consts", "k") is None
        assert store.entry_count("consts") == 0
        store.close()

    @pytest.mark.parametrize("count", [3, 2000])
    def test_get_many_answers_as_get_does(self, tmp_path, count):
        # Hits, misses and a corrupt row, over more keys than one query
        # binds: the same values, counters, deletions and queued touches
        # as one get per key, whose answers are read first from a copy.
        rows = [(f"k{i}", {"v": i}) for i in range(0, count, 2)]
        keys = [f"k{i}" for i in range(count)] + ["k0"]
        answers = {}
        for batched in (False, True):
            directory = tmp_path / str(batched)
            store = PersistentStore(directory)
            store.put_many("scc", rows)
            store.put("consts", "k1", "other space")
            with store._lock:
                store._conn.execute(
                    "UPDATE entries SET value = ? WHERE space = 'scc'"
                    " AND key = 'k2'", (b"not a pickle",))
                store._conn.commit()
                store._queued_hits.clear()
            if batched:
                found = store.get_many("scc", keys)
            else:
                found = {}
                for key in dict.fromkeys(keys):
                    value = store.get("scc", key)
                    if value is not None:
                        found[key] = value
            answers[batched] = (found, store.hits, store.misses,
                                store.entry_count("scc"),
                                sorted(store._queued_hits))
            store.close()
        assert answers[True] == answers[False]
        found = answers[True][0]
        assert found["k0"] == {"v": 0} and "k1" not in found
        assert "k2" not in found and len(found) == len(rows) - 1

    def test_garbage_file_is_recreated(self, tmp_path):
        (tmp_path / "store.sqlite").write_bytes(b"not a database" * 100)
        (tmp_path / "store.sqlite-journal").write_bytes(b"stale")
        store = PersistentStore(tmp_path)
        assert store.stats()["recreated"] is True
        assert not (tmp_path / "store.sqlite-journal").exists()
        store.put("consts", "k", "v")
        store.close()
        reopened = PersistentStore(tmp_path)
        assert reopened.recreated is False
        assert reopened.get("consts", "k") == "v"
        reopened.close()

    def test_locked_file_raises_and_keeps_rows(self, tmp_path, monkeypatch):
        store = PersistentStore(tmp_path)
        store.put("consts", "k", "v")
        store.close()
        holder = sqlite3.connect(str(tmp_path / "store.sqlite"))
        holder.execute("BEGIN EXCLUSIVE")
        connect = sqlite3.connect
        monkeypatch.setattr("repro.service.store.sqlite3.connect",
                            lambda *args, **kwargs: connect(*args, **kwargs,
                                                            timeout=0.05))
        try:
            with pytest.raises(sqlite3.OperationalError):
                PersistentStore(tmp_path)
        finally:
            holder.rollback()
            holder.close()
        reopened = PersistentStore(tmp_path)
        assert reopened.recreated is False
        assert reopened.get("consts", "k") == "v"
        reopened.close()


class TestWarmRestart:
    def test_fresh_analyzer_resolves_nothing_from_filled_store(self, tmp_path):
        store = PersistentStore(tmp_path)
        cold = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        cold_report = cold.analyze()
        cold_stats = cold.last_stats
        assert cold_stats.consts_solved > 0
        assert cold_stats.store_writes > 0

        # A brand-new analyzer (fresh process, same store) over the same
        # sources: everything comes off disk.
        warm = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        warm_report = warm.analyze()
        stats = warm.last_stats
        assert stats.consts_solved == 0
        assert stats.dirty_sccs == 0
        assert stats.shards_rerun == 0
        assert stats.store_hits > 0

        # Findings and analyses byte-identical; only the cache-hit flags
        # and wall-clock fields may differ (same as a second pass of the
        # same analyzer).
        cold_payload = cold_report.to_dict()
        warm_payload = warm_report.to_dict()
        for payload in (cold_payload, warm_payload):
            payload.pop("elapsed_seconds", None)
            payload.pop("cache_stats", None)
            payload.pop("perf", None)
            payload.get("summary_stats", {}).pop("cache_hit", None)
            payload.get("summary_stats", {}).pop("consts_cache_hit", None)
        assert cold_payload == warm_payload
        store.close()

    def test_edit_after_restart_still_incremental(self, tmp_path):
        from dataclasses import replace

        store = PersistentStore(tmp_path)
        cold = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        cold.analyze()
        store_writes = cold.last_stats.store_writes

        warm = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
        warm.analyze()
        touched = replace(
            KERNEL_FILES[-1],
            source=KERNEL_FILES[-1].source
            + "\nint __store_touch(void) { return 0; }\n")
        warm.analyze(KERNEL_FILES[:-1] + (touched,))
        stats = warm.last_stats
        assert stats.parsed_units == 1
        assert not stats.full_reparse
        # The touched TU's new artifacts spill to the store too.
        assert store.writes > store_writes
        store.close()

    def test_restart_over_corpus_edited_while_down(self, tmp_path):
        """A restart mixes store hits with dirty SCCs in one pass.

        The edits land while no analyzer runs: a body edit to
        ``spin_lock_init``, which other units call, and two functions
        appended to the last unit.  So the fresh analyzer's memory is
        empty, the clean components come from disk, and the dirty ones
        are solved against them."""
        from dataclasses import replace

        store = PersistentStore(tmp_path)
        IncrementalAnalyzer(files=KERNEL_FILES, store=store).analyze()

        lib = KERNEL_FILES[0]
        body = lib.source.index("void spin_lock_init(")
        at = lib.source.index("lock->owner_cpu = -1;", body)
        lib = replace(lib, source=lib.source[:at] + "lock->owner_cpu = -2;"
                      + lib.source[at + len("lock->owner_cpu = -1;"):])
        last = KERNEL_FILES[-1]
        assert last.filename == "kernel/watchdog.c"
        last = replace(last, source=last.source
                       + "\nint __restart_edit_a(void) { return 1; }\n"
                       + "\nint __restart_edit_b(void) { return 2; }\n")
        edited = (lib,) + KERNEL_FILES[1:-1] + (last,)

        warm = IncrementalAnalyzer(files=edited, store=store)
        report = warm.analyze()
        stats = warm.last_stats
        assert stats.dirty_sccs > 1
        assert stats.store_hits > 0

        fresh = IncrementalAnalyzer(files=edited).analyze()
        payloads = [report.to_dict(), fresh.to_dict()]
        for payload in payloads:
            for key in ("elapsed_seconds", "cache_stats", "perf"):
                payload.pop(key, None)
        assert payloads[0] == payloads[1]
        cold = reference_report(edited)
        assert report.all_findings() == cold.all_findings()
        store.close()


class TestReconcileCoalescing:
    def test_burst_coalesces_onto_queued_pass(self, monkeypatch):
        service = AnalysisService()
        service.request_reconcile()  # prime caches
        results = []

        # Hold the burst's first pass in flight until the five other
        # callers wait at the gate, however fast a pass is.
        entered = threading.Event()
        release = threading.Event()
        analyze = service.analyzer.analyze

        def held_analyze(*args, **kwargs):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=60)
            return analyze(*args, **kwargs)

        gate = service._gate
        gate_wait = gate.wait
        waiting = [0]

        def counting_wait(timeout=None):
            waiting[0] += 1  # runs with the gate's lock held
            try:
                return gate_wait(timeout)
            finally:
                waiting[0] -= 1

        monkeypatch.setattr(service.analyzer, "analyze", held_analyze)
        monkeypatch.setattr(gate, "wait", counting_wait)

        def call():
            snapshot, coalesced = service.request_reconcile()
            results.append((snapshot.revision, coalesced))

        threads = [threading.Thread(target=call) for _ in range(6)]
        threads[0].start()
        assert entered.wait(timeout=60)
        for thread in threads[1:]:
            thread.start()
        for _ in range(6000):
            with gate:
                if waiting[0] == 5:
                    break
            time.sleep(0.01)
        with gate:
            assert waiting[0] == 5
        release.set()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert len(results) == 6
        ran = [entry for entry in results if not entry[1]]
        coalesced = [entry for entry in results if entry[1]]
        # Two passes ran beyond the prime (in-flight + queued); the other
        # four callers coalesced onto the queued one.
        assert len(ran) == 2
        assert len(coalesced) == 4
        assert service.passes == 1 + len(ran)
        # Coalesced callers got the queued pass's published snapshot.
        latest = max(revision for revision, _ in results)
        assert all(revision == latest for revision, _ in coalesced)

    def test_single_request_is_not_coalesced(self):
        service = AnalysisService()
        snapshot, coalesced = service.request_reconcile()
        assert snapshot is not None
        assert coalesced is False


def test_service_reconciles_over_garbage_store(tmp_path):
    (tmp_path / "store.sqlite").write_bytes(b"not a database" * 100)
    service = AnalysisService(store_dir=tmp_path)
    snapshot, _ = service.request_reconcile()
    assert snapshot is not None
    assert service.stats_payload()["store"]["recreated"] is True
    assert service.store.writes > 0
    service.store.close()


@pytest.mark.parametrize("max_mb", [None, 5.0])
def test_service_builds_store_from_dir(tmp_path, max_mb):
    service = AnalysisService(store_dir=tmp_path, store_max_mb=max_mb)
    assert service.store is not None
    assert service.analyzer.store is service.store
    service.request_reconcile()
    assert service.store.writes > 0
    payload = service.stats_payload()
    assert payload["store"]["entries"] > 0
    service.store.close()
