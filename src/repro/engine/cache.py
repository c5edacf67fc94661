"""On-disk artifact store for job results, with an in-process LRU on top.

Layout: one SQLite database, ``<dir>/results.sqlite3``, with one row per
result (:data:`TABLE`).  Every row records the schema version, and its
payload names its own key; a row that fails to parse, was written under
another schema, or names another key is treated as a miss, deleted, and
counted in :attr:`CacheStats.corrupt` -- a damaged cache degrades to
recomputation, never to wrong numbers.  So does an unusable database
(unopenable, not a database, full, read-only, or locked past
:data:`BUSY_TIMEOUT_S`): every disk operation that fails is a miss or an
unstored put.  :meth:`ResultCache.clear` deletes a database file that
does not start with :data:`SQLITE_HEADER`, so the next put starts afresh.

The disk tier is a **shared backend**: any number of processes (separate
CLI invocations, ``repro serve`` processes over one ``--cache-dir``,
restarts) may read and write the same database concurrently.  The
contract is SQLite's locking:

* **Transactional publication.**  Each ``put`` is one autocommitted
  ``INSERT OR REPLACE``, so a reader sees the old row, no row, or the
  complete new row -- never a torn one; a writer killed inside its
  transaction leaves no row.  In WAL mode readers never wait for writers.
* **Content-addressed keys.**  Concurrent writers of one key are writing
  identical bytes (the key fingerprints the computation), so last-write-
  wins is not a race -- both replicas published the same result.
* **Transactional maintenance.**  :meth:`ResultCache.prune`,
  :meth:`ResultCache.evict_over_size` and :meth:`ResultCache.clear` are
  one ``DELETE`` each, so racing sweeps remove every row exactly once.

WAL needs shared memory between the processes, so the directory must be
on a local filesystem.  Only the parent process of a pooled run touches
the database; pool workers never open it.

The in-process LRU makes repeated points *within* one run free even when
the disk cache is disabled; it is bounded so paper-scale sweeps cannot
balloon resident memory.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported on first disk access: grid and proof never pay
    import sqlite3

from repro.engine.jobs import (
    ENGINE_SCHEMA_VERSION,
    EvalJob,
    JobResult,
    result_from_dict,
    result_to_dict,
    source_fingerprint,
)

DEFAULT_MEMORY_ENTRIES = 65536

#: The database file inside the cache directory.
DB_NAME = "results.sqlite3"

#: The first 16 bytes of every SQLite 3 database file.
SQLITE_HEADER = b"SQLite format 3\x00"

#: One row per result.  ``INSERT OR REPLACE`` gives a rewritten key a new
#: rowid, so rowid order is least-recently-written order.
TABLE = """CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    schema INTEGER NOT NULL,
    source TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    bytes INTEGER NOT NULL
)"""

#: How long a write waits for another process's transaction before the
#: put is dropped (a miss for the next reader, never an error).
BUSY_TIMEOUT_S = 1.0

#: Page cache per connection, in KiB: rows are read once per process (the
#: LRU serves repeats), so a large cache would only add resident memory.
PAGE_CACHE_KIB = 512


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-engine``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-engine"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance.

    ``shared`` counts jobs that repeated a pending miss of the same map:
    they were neither looked up nor computed, but took that miss's result
    (see :func:`repro.engine.pool.run_jobs`).  So a map's ``hits + misses
    + shared`` is its number of jobs, and the hit rate leaves them out.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    shared: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "shared": self.shared,
            "hit_rate": round(self.hit_rate, 4),
        }

    def summary(self) -> str:
        """The one-line form every CLI surface prints."""
        return (
            f"{self.hits} hits / {self.misses} misses / {self.shared} shared "
            f"({100 * self.hit_rate:.1f}% hit rate)"
        )


@dataclass
class ResultCache:
    """Job-keyed result store: bounded in-memory LRU over one SQLite table.

    ``directory=None`` disables the disk tier (memory-only cache).
    """

    directory: Path | None = None
    max_memory_entries: int = DEFAULT_MEMORY_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: OrderedDict[str, JobResult] = field(default_factory=OrderedDict)
    _db: "sqlite3.Connection | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Guards the connection: the health endpoint reads it outside the
    #: session lock that serializes gets and puts.
    _db_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The database is created on the first put(): read-only uses
        # (``cache show`` on a mistyped path) must not write anything.
        if self.directory is not None:
            self.directory = Path(self.directory)

    # ------------------------------------------------------------------
    def _connect(self, create: bool) -> "sqlite3.Connection | None":
        import sqlite3

        assert self.directory is not None
        path = self.directory / DB_NAME
        if not create and not path.exists():
            return None
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(
            path,
            timeout=BUSY_TIMEOUT_S,
            isolation_level=None,  # autocommit: one statement, one commit
            check_same_thread=False,  # serialized by _db_lock instead
        )
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute(f"PRAGMA cache_size=-{PAGE_CACHE_KIB}")
            db.execute(TABLE)
        except sqlite3.Error:
            db.close()
            raise
        return db

    def _sql(
        self,
        statement: str,
        args: tuple[object, ...] = (),
        create: bool = False,
    ) -> tuple[list[Any], int] | None:
        """Run one statement on the disk tier: ``(rows, rowcount)``.

        ``None`` when the tier is off, absent (and ``create`` is false) or
        failing -- every caller treats that as a miss or a no-op.
        """
        if self.directory is None:
            return None
        import sqlite3

        with self._db_lock:
            try:
                if self._db is None:
                    self._db = self._connect(create)
                    if self._db is None:
                        return None
                cursor = self._db.execute(statement, args)
                return cursor.fetchall(), cursor.rowcount
            except (sqlite3.Error, OSError):
                return None

    def _remember(self, key: str, result: JobResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def get(self, job: EvalJob) -> JobResult | None:
        """The cached result of ``job``, or ``None`` on a miss."""
        key = job.key
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return self._memory[key]
        result = self._read_disk(key)
        if result is not None:
            self._remember(key, result)
            self.stats.hits += 1
            return result
        self.stats.misses += 1
        return None

    def _read_disk(self, key: str) -> JobResult | None:
        found = self._sql(
            "SELECT rowid, schema, payload FROM results WHERE key = ?", (key,)
        )
        if not found or not found[0]:
            return None  # no row, or an unusable database: a plain miss
        rowid, schema, text = found[0][0]
        try:
            if schema != ENGINE_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            payload = json.loads(text)
            if payload["key"] != key:
                raise ValueError("key mismatch")
            return result_from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            # By rowid: a valid row a concurrent writer just put survives.
            self._sql("DELETE FROM results WHERE rowid = ?", (rowid,))
            return None

    def put(self, job: EvalJob, result: JobResult) -> None:
        """Store a freshly computed result in both tiers."""
        key = job.key
        self._remember(key, result)
        if self.directory is None:
            self.stats.stores += 1
            return
        payload = json.dumps({"key": key, "result": result_to_dict(result)})
        stored = self._sql(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)",
            (
                key,
                ENGINE_SCHEMA_VERSION,
                source_fingerprint(),
                job.kind,
                payload,
                len(payload),
            ),
            create=True,
        )
        if stored is not None:
            self.stats.stores += 1  # only what actually reached disk

    # ------------------------------------------------------------------
    def disk_usage(self) -> dict:
        """Entry count and byte total of the disk tier, JSON-shaped.

        The health endpoint and ``repro cache stats`` both read this, so
        operators and the load harness see one set of numbers.  One
        aggregate query, whatever the number of entries.
        """
        found = self._sql(
            "SELECT count(*), coalesce(sum(bytes), 0) FROM results"
        )
        entries, total = found[0][0] if found else (0, 0)
        return {
            "directory": str(self.directory) if self.directory else None,
            "entries": entries,
            "bytes": total,
        }

    def entry_count(self) -> int:
        """Number of results on disk (memory-only entries excluded)."""
        return int(self.disk_usage()["entries"])

    def total_bytes(self) -> int:
        return int(self.disk_usage()["bytes"])

    def _deleted(self, statement: str, args: tuple[object, ...] = ()) -> int:
        done = self._sql(statement, args)
        return done[1] if done else 0

    def clear(self) -> int:
        """Drop every entry from both tiers; returns entries removed.

        Files of the earlier one-JSON-file-per-result layout are removed
        too.  Only paths of exactly that shape (a 2-hex directory holding
        64-hex ``.json`` names) are touched, so a mistyped ``--cache-dir``
        never loses a foreign file.
        """
        self._memory.clear()
        if self.directory is None:
            return 0
        self._drop_foreign_database()
        removed = self._deleted("DELETE FROM results")
        hexdigits = set("0123456789abcdef")
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*/*.json")):
                shard, stem = path.parent.name, path.stem
                if not (
                    len(shard) == 2
                    and set(shard) <= hexdigits
                    and len(stem) == 64
                    and set(stem) <= hexdigits
                ):
                    continue
                try:
                    path.unlink()
                    removed += 1
                    path.parent.rmdir()  # fails while the shard holds more
                except OSError:
                    continue
        return removed

    def _drop_foreign_database(self) -> None:
        """Delete :data:`DB_NAME` and its sidecars if it is no database.

        Such a file (another program's bytes, a torn copy) fails every
        open, so the disk tier would stay a pure miss for good.  Only
        the database's own three names are touched.  A zero-length file
        is a database SQLite has yet to write, and stays.
        """
        assert self.directory is not None
        path = self.directory / DB_NAME
        try:
            with path.open("rb") as handle:
                header = handle.read(len(SQLITE_HEADER))
        except OSError:
            return  # absent, or not a readable file
        if not header or header == SQLITE_HEADER:
            return
        with self._db_lock:
            if self._db is not None:
                self._db.close()
                self._db = None
            for name in (DB_NAME, f"{DB_NAME}-wal", f"{DB_NAME}-shm"):
                try:
                    (self.directory / name).unlink(missing_ok=True)
                except OSError:
                    continue

    def evict_over_size(self, max_bytes: int) -> int:
        """Evict least-recently-written entries until the tier fits.

        Long-lived serve replicas call this (via ``repro cache prune
        --max-bytes``) to bound disk growth; entries go oldest-written
        first, so the hottest (most recently re-written or freshly
        computed) results survive.  A row goes exactly when it and every
        newer row together exceed the budget.  Returns entries removed.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        return self._deleted(
            "DELETE FROM results WHERE rowid IN (SELECT rowid FROM ("
            " SELECT rowid, sum(bytes) OVER (ORDER BY rowid DESC) AS newer"
            " FROM results) WHERE newer > ?)",
            (max_bytes,),
        )

    def prune(self) -> int:
        """Remove entries no *current* job can ever look up again.

        Entries are keyed by schema + source fingerprint, so rows written
        under an older schema or an edited codebase are orphaned -- no
        lookup from this checkout will find (and so retire) them.  Only
        invoked explicitly (``python -m repro cache prune``): another
        checkout sharing the cache directory may still be using those
        entries, so sweeping them automatically would thrash.  Returns the
        number of entries removed; valid current entries are untouched.
        """
        return self._deleted(
            "DELETE FROM results WHERE schema != ? OR source != ?",
            (ENGINE_SCHEMA_VERSION, source_fingerprint()),
        )

    def describe(self) -> str:
        """One-paragraph human summary for the ``cache show`` CLI."""
        where = str(self.directory) if self.directory else "(memory only)"
        usage = self.disk_usage()
        lines = [
            f"cache directory : {where}",
            f"entries on disk : {usage['entries']}",
            f"size on disk    : {usage['bytes'] / 1024:.1f} KiB",
            f"schema version  : {ENGINE_SCHEMA_VERSION}",
        ]
        if self.stats.lookups:
            lines.append(f"this process    : {self.stats.summary()}")
        return "\n".join(lines)


__all__ = [
    "BUSY_TIMEOUT_S",
    "CacheStats",
    "DB_NAME",
    "SQLITE_HEADER",
    "DEFAULT_MEMORY_ENTRIES",
    "ResultCache",
    "default_cache_dir",
]
