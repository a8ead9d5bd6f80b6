"""Persistent warm-start store for analysis artifacts.

The incremental analyzer already computes content-addressed keys for every
artifact it caches in memory — per-function consts facts keyed by
``(semantic hash, globals fingerprint, domain fingerprint)``, per-SCC
summaries keyed by a Merkle fingerprint over the SCC's member hashes and
its callees' fingerprints, and per-(analysis, TU) finding shards keyed the
same way.  This module spills those maps to a SQLite file so a restarted
``repro-engine serve`` re-solves ~0 SCCs on an unchanged corpus instead of
paying a full cold pass.  A batch run is a pass of the same analyzer, so
``run --cache-dir`` reads and writes the same rows: one directory serves
both, and each warms the other.

Because the keys are fingerprints of everything the artifact depends on
(including the analysis code, via the package's source digest in the
globals fingerprint), invalidation is free: a changed input simply produces
a different key, and the stale row ages out through the LRU sweep.  A store
written by different code (its ``version`` meta row holds that code's
source digest) is purged outright when opened, keeping it from
accumulating unreachable rows across upgrades.  A file that is not a
readable database (``sqlite3.DatabaseError``) is deleted, with its
``-journal``, and recreated empty (``stats()["recreated"]``); a locked or
busy one (``sqlite3.OperationalError``) raises and is left untouched.

Values are pickled Python objects; a row that fails to unpickle is treated
as a miss and deleted.  A hit does not write: its key is queued and its LRU
clock refreshed by the next batched :meth:`PersistentStore.touch` (or write,
or close), so a warm restart costs one commit per phase instead of one per
hit.  Rows a caller serves from its own memory are a space's *live set*
(the keys of its last :meth:`PersistentStore.touch`): their clocks are only
written just before an eviction sweep picks a victim, and on close, so an
unbounded store writes nothing for them however many passes reuse them.
The live set is this process's: another process sharing the file sees
those rows' clocks as of their last write.  All access is serialized behind one lock — the analyzer's passes are
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

#: Keys per query of :meth:`PersistentStore.get_many`, under SQLite's
#: smallest default limit of 999 bound variables per statement.
_CHUNK = 900

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

    ``spaces`` partition the keyspace by artifact kind: "consts", "scc" and
    "shard"; keys within a space are the analyzer's fingerprints, so
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
        #: space -> keys its caller last reported serving from memory; their
        #: clocks are written only before an eviction sweep and on close.
        self._live: dict[str, list[str]] = {}
        #: Whether the file held no readable database and was replaced.
        self.recreated = False
        try:
            self._conn = self._open()
        except sqlite3.OperationalError:
            raise  # locked or busy: another connection holds the file
        except sqlite3.DatabaseError:
            for path in (self.path, self.path.with_name(_DB_NAME + "-journal")):
                path.unlink(missing_ok=True)
            self._conn = self._open()
            self.recreated = True

    def _open(self) -> sqlite3.Connection:
        """Connect, create the schema and purge rows of other code."""
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            conn.executescript(_SCHEMA)
            version = source_digest()
            row = conn.execute(
                "SELECT value FROM meta WHERE name = 'version'").fetchone()
            if row is not None and row[0] != version:
                conn.execute("DELETE FROM entries")
            conn.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES (?, ?)",
                ("version", version))
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

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

    def get_many(self, space: str, keys) -> dict[str, Any]:
        """:meth:`get` for every key at once: ``{key: value}`` of the hits.

        One query per ``_CHUNK`` keys instead of one per key.  A row that
        fails to unpickle is deleted and counts as a miss, and each hit is
        queued for the LRU touch, as with :meth:`get`.
        """
        keys = list(dict.fromkeys(keys))
        found: dict[str, Any] = {}
        with self._lock:
            corrupt = []
            for at in range(0, len(keys), _CHUNK):
                chunk = keys[at:at + _CHUNK]
                rows = self._conn.execute(
                    "SELECT key, value FROM entries WHERE space = ? AND key IN"
                    f" ({','.join('?' * len(chunk))})", (space, *chunk))
                for key, blob in rows:
                    try:
                        found[key] = pickle.loads(blob)
                    except Exception:
                        corrupt.append((space, key))
            if corrupt:
                self._conn.executemany(
                    "DELETE FROM entries WHERE space = ? AND key = ?", corrupt)
                self._conn.commit()
            self._queued_hits.extend((space, key) for key in found)
            self.hits += len(found)
            self.misses += len(keys) - len(found)
        return found

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
            self._evict_locked(now)
            self._conn.commit()

    def touch(self, space: str, keys) -> None:
        """Refresh the LRU clock of every hit :meth:`get` queued since the
        last refresh, and make ``keys`` — the entries the caller serves from
        its in-memory tier — ``space``'s live set, replacing the previous
        one.  Live entries' clocks are written lazily: just before this
        store's eviction sweep picks a victim, and on :meth:`close`.  So
        this store never evicts a live entry, but another process's store
        over the same file, which sees the clocks as last written, may."""
        now = time.time()
        with self._lock:
            self._live[space] = list(keys)
            if self._touch_locked(now, ()):
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

    def _live_entries(self) -> list[tuple[str, str]]:
        return [(space, key) for space, keys in self._live.items()
                for key in keys]

    # -- bookkeeping --------------------------------------------------------

    def _evict_locked(self, now: float) -> None:
        if self.max_bytes is None:
            return
        total = self._conn.execute(
            "SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]
        if total > self.max_bytes:
            # The live set is in use: date it now, so the sweep below picks
            # its victims among the rows nobody is serving.
            self._touch_locked(now, self._live_entries())
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
                "evictions": self.evictions, "recreated": self.recreated,
                "max_mb": (self.max_bytes / (1024 * 1024)
                           if self.max_bytes else None)}

    def close(self) -> None:
        with self._lock:
            if self._touch_locked(time.time(), self._live_entries()):
                self._conn.commit()
            self._live.clear()
            self._conn.close()
