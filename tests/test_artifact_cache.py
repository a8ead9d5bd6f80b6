"""The engine's on-disk artifact tier: a hit is a value that loaded.

``ArtifactCache`` persists the parsed program, the constant facts and the
summaries in the ``artifact`` space of a :class:`PersistentStore`.  A key
whose value does not load (a failed read, a row that no longer unpickles)
must be solved again, reported as a miss, and written back whole, at every
``jobs`` setting; a warm read keeps its row alive under the LRU bound; and
one directory serves the batch cache and the incremental analyzer alike.
"""

from __future__ import annotations

import copy
import json
import shutil
import sqlite3
import time

import pytest

from repro.engine import AnalysisEngine, ArtifactCache
from repro.kernel.corpus import KERNEL_FILES
from repro.service import IncrementalAnalyzer
from repro.service.store import PersistentStore

#: Report fields that depend on the run, not on the corpus.
VOLATILE = ("elapsed_seconds", "cache_stats", "jobs", "parallel", "perf")


def outcome(report) -> str:
    """The report's findings and summary stats, without the cache flags."""
    payload = copy.deepcopy(report.to_dict())
    for key in VOLATILE:
        payload.pop(key)
    payload["summary_stats"].pop("cache_hit")
    payload["summary_stats"].pop("consts_cache_hit")
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def cold_report():
    return AnalysisEngine(files=KERNEL_FILES).run()


@pytest.fixture(scope="module")
def filled_dir(tmp_path_factory):
    """A cache directory holding one cold run's program, consts and summaries."""
    directory = tmp_path_factory.mktemp("seed-cache")
    engine = AnalysisEngine(files=KERNEL_FILES, cache_dir=directory)
    engine.run()
    engine.cache.store.close()
    return directory


@pytest.fixture
def cache_dir(filled_dir, tmp_path):
    copied = tmp_path / "cache"
    shutil.copytree(filled_dir, copied)
    return copied


def lose_by_load(monkeypatch, kind: str) -> None:
    """Make every disk read of ``kind``'s entry fail."""
    load = ArtifactCache._load_disk

    def failing(self, key):
        return None if key.startswith(f"{kind}-") else load(self, key)

    monkeypatch.setattr(ArtifactCache, "_load_disk", failing)


def lose_by_garbage(directory, kind: str) -> None:
    """Overwrite the stored value of ``kind``'s entry with bytes that do not
    unpickle."""
    conn = sqlite3.connect(str(directory / "store.sqlite"))
    try:
        changed = conn.execute(
            "UPDATE entries SET value = ? WHERE space = 'artifact' AND key LIKE ?",
            (b"not a pickle", f"{kind}-%")).rowcount
        conn.commit()
    finally:
        conn.close()
    assert changed == 1


class TestLostEntryIsSolvedAgain:
    @pytest.mark.parametrize("how", ["load", "garbage"])
    @pytest.mark.parametrize("kind", ["consts", "summaries"])
    def test_parallel_run_matches_cold(self, cache_dir, cold_report,
                                       monkeypatch, kind, how):
        with monkeypatch.context() as patch:
            if how == "load":
                lose_by_load(patch, kind)
            else:
                lose_by_garbage(cache_dir, kind)
            report = AnalysisEngine(files=KERNEL_FILES,
                                    cache_dir=cache_dir).run(jobs=2)
        assert outcome(report) == outcome(cold_report)
        assert report.summary_stats["consts_cache_hit"] is (kind != "consts")
        assert report.summary_stats["cache_hit"] is (kind != "summaries")

        # The re-solved value was written back whole: the next warm run
        # loads all three entries and still matches.
        warm = AnalysisEngine(files=KERNEL_FILES, cache_dir=cache_dir).run()
        assert outcome(warm) == outcome(cold_report)
        assert warm.cache_stats["disk_hits"] == 3
        assert warm.summary_stats["consts_cache_hit"] is True
        assert warm.summary_stats["cache_hit"] is True

    def test_serial_run_reports_the_miss(self, cache_dir, monkeypatch):
        lose_by_load(monkeypatch, "consts")
        report = AnalysisEngine(files=KERNEL_FILES, cache_dir=cache_dir).run()
        assert report.summary_stats["consts_cache_hit"] is False
        assert report.summary_stats["cache_hit"] is True


def test_garbage_store_file_is_recreated(tmp_path, cold_report):
    (tmp_path / "store.sqlite").write_bytes(b"not a database" * 100)
    engine = AnalysisEngine(files=KERNEL_FILES, cache_dir=tmp_path)
    report = engine.run()
    assert engine.cache.store.recreated
    assert outcome(report) == outcome(cold_report)
    engine.cache.store.close()


def test_warm_read_keeps_entry_alive(tmp_path):
    blob = b"x" * 2048
    budget_mb = 5000 / (1024 * 1024)  # two entries fit, three do not
    writer = ArtifactCache(cache_dir=tmp_path, max_mb=budget_mb)
    writer.get_or_build("artifact-a", lambda: blob)
    time.sleep(0.02)
    writer.get_or_build("artifact-b", lambda: blob)
    writer.store.close()
    time.sleep(0.02)

    # A read through a cache that is then dropped, unclosed, still counts.
    reader = ArtifactCache(cache_dir=tmp_path, max_mb=budget_mb)
    assert reader.lookup("artifact-a") == blob
    del reader
    time.sleep(0.02)

    third = ArtifactCache(cache_dir=tmp_path, max_mb=budget_mb)
    third.get_or_build("artifact-c", lambda: blob)
    assert third.evictions == 1
    assert third.lookup("artifact-b") is None
    assert third.lookup("artifact-a") == blob
    third.store.close()


def test_one_directory_serves_engine_and_analyzer(tmp_path):
    engine = AnalysisEngine(files=KERNEL_FILES, cache_dir=tmp_path)
    engine.run()
    engine.cache.store.close()
    store = PersistentStore(tmp_path)
    IncrementalAnalyzer(files=KERNEL_FILES, store=store).analyze()
    store.close()

    warm = AnalysisEngine(files=KERNEL_FILES, cache_dir=tmp_path)
    assert warm.run().cache_stats["disk_hits"] == 3
    warm.cache.store.close()
    store = PersistentStore(tmp_path)
    restarted = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
    restarted.analyze()
    assert restarted.last_stats.dirty_sccs == 0
    store.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["store.sqlite"]
