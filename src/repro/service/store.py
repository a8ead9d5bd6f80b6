"""Persistent warm-start store for analysis artifacts.

The incremental analyzer already computes content-addressed keys for every
artifact it caches in memory — per-function consts facts keyed by
``(semantic hash, globals fingerprint, domain fingerprint)``, per-SCC
summaries keyed by a Merkle fingerprint over the SCC's member hashes and
its callees' fingerprints, and per-(analysis, TU) finding shards keyed the
same way.  This module spills those maps to a SQLite file so a restarted
``repro-engine serve`` (or a batch run pointed at the same store) re-solves
~0 SCCs on an unchanged corpus instead of paying a full cold pass.

Because the keys are fingerprints of everything the artifact depends on
(including the analysis code, via the package's source digest in the
globals fingerprint), invalidation is free: a changed input simply produces
a different key, and the stale row ages out through the LRU sweep.  A store
written by different code (its ``version`` meta row holds that code's
source digest) is purged outright when opened, keeping it from
accumulating unreachable rows across upgrades.

Values are pickled Python objects; a row that fails to unpickle is treated
as a miss and deleted.  A hit does not write: its key is queued and its LRU
clock refreshed by the next batched :meth:`PersistentStore.touch` (or write,
or close), so a warm restart costs one commit per phase instead of one per
hit.  All access is serialized behind one lock — the analyzer's passes are
already serialized behind the service reconcile lock, so contention is not
a concern.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Optional

from .. import source_digest

_DB_NAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    space TEXT NOT NULL,
    key TEXT NOT NULL,
    value BLOB NOT NULL,
    size INTEGER NOT NULL,
    atime REAL NOT NULL,
    PRIMARY KEY (space, key)
);
CREATE TABLE IF NOT EXISTS meta (
    name TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class PersistentStore:
    """A content-keyed artifact store on disk, LRU-bounded by size.

    ``spaces`` partition the keyspace by artifact kind ("consts", "scc",
    "shard"); keys within a space are the analyzer's own fingerprints, so
    equality of key implies equality of artifact.
    """

    def __init__(self, directory: str | os.PathLike,
                 max_mb: Optional[float] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _DB_NAME
        self.max_bytes = int(max_mb * 1024 * 1024) if max_mb else None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self._lock = threading.Lock()
        #: (space, key) of hits whose LRU clock is not yet refreshed.
        self._queued_hits: list[tuple[str, str]] = []
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock:
            self._conn.executescript(_SCHEMA)
            version = source_digest()
            row = self._conn.execute(
                "SELECT value FROM meta WHERE name = 'version'").fetchone()
            if row is not None and row[0] != version:
                self._conn.execute("DELETE FROM entries")
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES (?, ?)",
                ("version", version))
            self._conn.commit()

    # -- core operations ----------------------------------------------------

    def get(self, space: str, key: str) -> Any:
        """The stored value, or ``None`` on miss (queues an LRU touch)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM entries WHERE space = ? AND key = ?",
                (space, key)).fetchone()
            if row is None:
                self.misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:
                self._conn.execute(
                    "DELETE FROM entries WHERE space = ? AND key = ?",
                    (space, key))
                self._conn.commit()
                self.misses += 1
                return None
            self._queued_hits.append((space, key))
            self.hits += 1
            return value

    def put(self, space: str, key: str, value: Any) -> None:
        self.put_many(space, [(key, value)])

    def put_many(self, space: str, items) -> None:
        """Write-through a batch of ``(key, value)`` pairs in one commit."""
        rows = []
        now = time.time()
        for key, value in items:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            rows.append((space, key, blob, len(blob), now))
        if not rows:
            return
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries (space, key, value, size, atime)"
                " VALUES (?, ?, ?, ?, ?)", rows)
            self.writes += len(rows)
            # Queued hits are recent uses: refresh them before the sweep
            # picks its victims by age.
            self._touch_locked(now, ())
            self._evict_locked()
            self._conn.commit()

    def touch(self, space: str, keys) -> None:
        """Refresh the LRU clock of entries served from the in-memory tier,
        together with every hit :meth:`get` queued since the last refresh."""
        now = time.time()
        with self._lock:
            if self._touch_locked(now, [(space, key) for key in keys]):
                self._conn.commit()

    def _touch_locked(self, now: float, entries) -> bool:
        """One ``executemany`` over ``entries`` plus the queued hits."""
        rows = [(now, space, key)
                for space, key in (*self._queued_hits, *entries)]
        self._queued_hits.clear()
        if rows:
            self._conn.executemany(
                "UPDATE entries SET atime = ? WHERE space = ? AND key = ?",
                rows)
        return bool(rows)

    def contains(self, space: str, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM entries WHERE space = ? AND key = ?",
                (space, key)).fetchone()
            return row is not None

    # -- bookkeeping --------------------------------------------------------

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        total = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]
        while total > self.max_bytes:
            victim = self._conn.execute(
                "SELECT space, key, size FROM entries"
                " ORDER BY atime ASC LIMIT 1").fetchone()
            if victim is None:
                break
            self._conn.execute(
                "DELETE FROM entries WHERE space = ? AND key = ?",
                (victim[0], victim[1]))
            total -= victim[2]
            self.evictions += 1

    def entry_count(self, space: Optional[str] = None) -> int:
        with self._lock:
            if space is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM entries").fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM entries WHERE space = ?",
                    (space,)).fetchone()
            return int(row[0])

    def total_bytes(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()
            return int(row[0])

    def stats(self) -> dict:
        return {"path": str(self.path), "entries": self.entry_count(),
                "bytes": self.total_bytes(), "hits": self.hits,
                "misses": self.misses, "writes": self.writes,
                "evictions": self.evictions,
                "max_mb": (self.max_bytes / (1024 * 1024)
                           if self.max_bytes else None)}

    def close(self) -> None:
        with self._lock:
            if self._touch_locked(time.time(), ()):
                self._conn.commit()
            self._conn.close()
