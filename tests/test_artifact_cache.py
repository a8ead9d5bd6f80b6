"""The engine's on-disk tier: the analyzer's rows, and a hit is a row that
loaded.

``run --cache-dir`` opens a :class:`PersistentStore` and reads and writes
the rows ``serve --store-dir`` does: constant facts per function
(``consts``), summaries per SCC (``scc``) and checker shards per (analysis,
unit) (``shard``).  A row that does not load (a failed read, bytes that no
longer unpickle) must be solved again, reported as a miss, and written
back, at every ``jobs`` setting; a warm read keeps its rows alive under the
LRU bound; and one directory serves the engine and the service alike.
"""

from __future__ import annotations

import copy
import json
import shutil
import sqlite3
import time

import pytest

from repro.engine import AnalysisEngine
from repro.kernel.corpus import KERNEL_FILES, CorpusFile
from repro.service import IncrementalAnalyzer
from repro.service.store import PersistentStore

#: Report fields that depend on the run, not on the corpus.
VOLATILE = ("elapsed_seconds", "cache_stats", "jobs", "parallel", "perf")

#: Each lost-row case's store space: the summaries live in ``scc`` rows.
SPACES = {"consts": "consts", "summaries": "scc", "shard": "shard"}


def outcome(report) -> str:
    """The report's findings and summary stats, without the cache flags."""
    payload = copy.deepcopy(report.to_dict())
    for key in VOLATILE:
        payload.pop(key)
    payload["summary_stats"].pop("cache_hit")
    payload["summary_stats"].pop("consts_cache_hit")
    return json.dumps(payload, sort_keys=True)


def run_engine(directory, jobs: int = 1, files=KERNEL_FILES):
    """One engine run over ``directory``; returns the report and the
    pass's stats, with the store closed."""
    engine = AnalysisEngine(files=files, cache_dir=directory)
    try:
        return engine.run(jobs=jobs), engine.analyzer.last_stats
    finally:
        engine.analyzer.store.close()


@pytest.fixture(scope="module")
def cold_report():
    return AnalysisEngine(files=KERNEL_FILES).run()


@pytest.fixture(scope="module")
def filled_dir(tmp_path_factory):
    """A cache directory holding one cold run's rows."""
    directory = tmp_path_factory.mktemp("seed-cache")
    run_engine(directory)
    return directory


@pytest.fixture
def cache_dir(filled_dir, tmp_path):
    copied = tmp_path / "cache"
    shutil.copytree(filled_dir, copied)
    return copied


def stored_keys(directory, space: str) -> list[str]:
    conn = sqlite3.connect(str(directory / "store.sqlite"))
    try:
        return sorted(key for (key,) in conn.execute(
            "SELECT key FROM entries WHERE space = ?", (space,)))
    finally:
        conn.close()


def lose_by_load(patch, space: str, key: str) -> None:
    """Make every read of ``space``'s row ``key`` miss."""
    get_many = PersistentStore.get_many

    def failing(self, read_space, keys):
        found = get_many(self, read_space, keys)
        if read_space == space:
            found.pop(key, None)
        return found

    patch.setattr(PersistentStore, "get_many", failing)


def lose_by_garbage(directory, space: str, key: str) -> None:
    """Overwrite ``space``'s row ``key`` with bytes that do not unpickle."""
    conn = sqlite3.connect(str(directory / "store.sqlite"))
    try:
        changed = conn.execute(
            "UPDATE entries SET value = ? WHERE space = ? AND key = ?",
            (b"not a pickle", space, key)).rowcount
        conn.commit()
    finally:
        conn.close()
    assert changed == 1


def check_lost_row(directory, monkeypatch, kind: str, how: str, jobs: int,
                   cold_report) -> None:
    """Lose one ``kind`` row ``how``; a run at ``jobs`` solves it again,
    reports the miss and writes the row back, and the next warm run
    misses nothing.  All three match a cold run."""
    space = SPACES[kind]
    key = stored_keys(directory, space)[0]
    with monkeypatch.context() as patch:
        if how == "load":
            lose_by_load(patch, space, key)
        else:
            lose_by_garbage(directory, space, key)
        report, stats = run_engine(directory, jobs)
    assert outcome(report) == outcome(cold_report)
    assert report.cache_stats["misses"] == 1
    assert (stats.consts_solved, stats.dirty_sccs, stats.shards_rerun) == (
        int(kind == "consts"), int(kind == "summaries"), int(kind == "shard"))
    assert report.summary_stats["consts_cache_hit"] is (kind != "consts")
    assert report.summary_stats["cache_hit"] is (kind != "summaries")
    assert key in stored_keys(directory, space)

    warm, _ = run_engine(directory)
    assert outcome(warm) == outcome(cold_report)
    assert warm.cache_stats["misses"] == 0
    assert warm.cache_stats["disk_hits"] > 0
    assert warm.summary_stats["consts_cache_hit"] is True
    assert warm.summary_stats["cache_hit"] is True


class TestLostEntryIsSolvedAgain:
    @pytest.mark.parametrize("how", ["load", "garbage"])
    @pytest.mark.parametrize("kind", ["consts", "summaries", "shard"])
    def test_parallel_run_matches_cold(self, cache_dir, cold_report,
                                       monkeypatch, kind, how):
        check_lost_row(cache_dir, monkeypatch, kind, how, 2, cold_report)

    def test_serial_run_reports_the_miss(self, filled_dir, cold_report,
                                         monkeypatch, tmp_path):
        for kind in SPACES:
            for how in ("load", "garbage"):
                directory = tmp_path / f"{kind}-{how}"
                shutil.copytree(filled_dir, directory)
                check_lost_row(directory, monkeypatch, kind, how, 1,
                               cold_report)


def test_garbage_store_file_is_recreated(tmp_path, cold_report):
    (tmp_path / "store.sqlite").write_bytes(b"not a database" * 100)
    engine = AnalysisEngine(files=KERNEL_FILES, cache_dir=tmp_path)
    report = engine.run()
    assert engine.analyzer.store.recreated
    assert outcome(report) == outcome(cold_report)
    engine.analyzer.store.close()


def test_warm_read_keeps_entry_alive(tmp_path):
    files = (CorpusFile("tiny.c", "int twice(int v) { return v + v; }\n"),)
    run_engine(tmp_path, files=files)
    store = PersistentStore(tmp_path)
    rows = store.total_bytes()
    store.close()
    # A budget that holds the run's rows and one filler, but not two.
    filler = b"x" * (3 * rows)
    budget_mb = 4.5 * rows / (1024 * 1024)
    store = PersistentStore(tmp_path, max_mb=budget_mb)
    time.sleep(0.02)
    store.put("filler", "first", filler)
    store.close()
    time.sleep(0.02)

    # A warm run whose engine is then dropped, its store unclosed, still
    # refreshed the clocks of the rows it read.
    engine = AnalysisEngine(files=files, cache_dir=tmp_path,
                            cache_max_mb=budget_mb)
    assert engine.run().cache_stats["misses"] == 0
    del engine
    time.sleep(0.02)

    store = PersistentStore(tmp_path, max_mb=budget_mb)
    store.put("filler", "second", filler)
    assert store.evictions == 1
    assert store.get("filler", "first") is None
    store.close()
    report, _ = run_engine(tmp_path, files=files)
    assert report.cache_stats["misses"] == 0


def test_one_directory_serves_engine_and_analyzer(tmp_path):
    run_engine(tmp_path)
    # A serve restart over the directory a cold `run --cache-dir` filled
    # re-solves nothing.
    store = PersistentStore(tmp_path)
    restarted = IncrementalAnalyzer(files=KERNEL_FILES, store=store)
    restarted.analyze()
    stats = restarted.last_stats
    assert (stats.consts_solved, stats.dirty_sccs, stats.shards_rerun) == (0, 0, 0)
    assert stats.store_hits > 0
    store.close()

    warm, _ = run_engine(tmp_path)
    assert warm.cache_stats["misses"] == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["store.sqlite"]
