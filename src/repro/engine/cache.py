"""On-disk artifact store for job results, with an in-process LRU on top.

Layout: one JSON file per result under ``<dir>/<key[:2]>/<key>.json`` (the
two-character shard keeps directories small at paper scale).  Every file
records the schema version and its own key; a file that fails to parse, was
written under another schema, or does not match its name is treated as a
miss, deleted, and counted in :attr:`CacheStats.corrupt` -- a damaged cache
degrades to recomputation, never to wrong numbers.

The disk tier is a **shared backend**: any number of processes (sweep
workers, separate CLI invocations, ``repro serve`` processes over one
``--cache-dir``, restarts) may read and write the same directory
concurrently.  The concurrency contract
rests on three properties:

* **Atomic publication.**  Writes land in a same-directory temp file and
  are published with :func:`os.replace`, so a reader sees either the old
  entry, no entry, or the complete new entry -- never a torn one.  A crash
  mid-write leaves only a ``.tmp-*`` orphan (reclaimed by
  :meth:`ResultCache.clean_stale_tmp`), not a truncated entry.
* **Content-addressed keys.**  Concurrent writers of one key are writing
  identical bytes (the key fingerprints the computation), so last-write-
  wins is not a race -- both replicas published the same result.
* **Locked maintenance.**  Mutating sweeps (:meth:`ResultCache.prune`,
  :meth:`ResultCache.evict_over_size`, :meth:`ResultCache.clear`) take an
  advisory inter-process file lock so two long-lived replicas pruning the
  same directory do not duplicate (or interleave) the work; reads and
  writes never lock.

The in-process LRU makes repeated points *within* one run free even when
the disk cache is disabled; it is bounded so paper-scale sweeps cannot
balloon resident memory.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from typing import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.jobs import (
    ENGINE_SCHEMA_VERSION,
    EvalJob,
    JobResult,
    result_from_dict,
    result_to_dict,
    source_fingerprint,
)

DEFAULT_MEMORY_ENTRIES = 65536

#: A ``.tmp-*`` file older than this is a crash leftover, not an in-flight
#: write (writes are milliseconds), and is safe to reclaim.
STALE_TMP_SECONDS = 3600.0


@contextlib.contextmanager
def _maintenance_lock(directory: Path) -> "Iterator[None]":
    """Advisory inter-process lock for cache maintenance sweeps.

    Best-effort by design: on platforms without :mod:`fcntl` (or on
    filesystems rejecting ``flock``) maintenance proceeds unlocked --
    every individual deletion is already safe (``missing_ok``), the lock
    only prevents two replicas from duplicating a sweep's work.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platform
        yield
        return
    if not directory.is_dir():  # nothing to maintain, nothing to create
        yield
        return
    lock_path = directory / ".maintenance.lock"
    try:
        handle = open(lock_path, "a+")
    except OSError:  # read-only cache: sweep unlocked (it will no-op)
        yield
        return
    try:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - flock-less filesystem
            pass
        yield
    finally:
        handle.close()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-engine``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-engine"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

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
            "hit_rate": round(self.hit_rate, 4),
        }

    def summary(self) -> str:
        """The one-line form every CLI surface prints."""
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({100 * self.hit_rate:.1f}% hit rate)"
        )


@dataclass
class ResultCache:
    """Job-keyed result store: bounded in-memory LRU over on-disk JSON.

    ``directory=None`` disables the disk tier (memory-only cache).
    """

    directory: Path | None = None
    max_memory_entries: int = DEFAULT_MEMORY_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: OrderedDict[str, JobResult] = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        # Directory creation is deferred to the first put(): read-only uses
        # (``cache show`` on a mistyped path) must not write anything.
        if self.directory is not None:
            self.directory = Path(self.directory)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

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
        if self.directory is not None:
            result = self._read_disk(key)
            if result is not None:
                self._remember(key, result)
                self.stats.hits += 1
                return result
        self.stats.misses += 1
        return None

    def _read_disk(self, key: str) -> JobResult | None:
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            # Missing entry or transient I/O failure: a plain miss.  The
            # file (if any) may be perfectly valid -- don't delete it.
            return None
        try:
            payload = json.loads(text)
            if payload["schema"] != ENGINE_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            if payload["key"] != key:
                raise ValueError("key mismatch")
            return result_from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:  # read-only cache: leave the bad entry be
                pass
            return None

    def put(self, job: EvalJob, result: JobResult) -> None:
        """Store a freshly computed result in both tiers."""
        key = job.key
        self._remember(key, result)
        if self.directory is None:
            self.stats.stores += 1
            return
        payload = json.dumps(
            {
                "schema": ENGINE_SCHEMA_VERSION,
                "source": source_fingerprint(),
                "key": key,
                "kind": job.kind,
                "result": result_to_dict(result),
            }
        )
        # An unwritable cache (read-only dir, disk full, path component is
        # a file) must degrade to recomputation, never abort the run.
        tmp = None
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
            self.stats.stores += 1  # only what actually reached disk
        except OSError:
            if tmp is not None:
                try:
                    Path(tmp).unlink(missing_ok=True)
                except OSError:  # pragma: no cover - doubly broken dir
                    pass

    # ------------------------------------------------------------------
    def _disk_files(self) -> list[Path]:
        """Cache entries on disk, strictly matching the layout _path writes.

        The shape check (2-hex shard dir, 64-hex name) keeps clear() from
        ever touching foreign files under a mistyped ``--cache-dir``.
        """
        if self.directory is None or not self.directory.exists():
            return []
        hexdigits = set("0123456789abcdef")
        return sorted(
            p
            for p in self.directory.glob("*/*.json")
            if len(p.parent.name) == 2
            and set(p.parent.name) <= hexdigits
            and len(p.stem) == 64
            and set(p.stem) <= hexdigits
        )

    def entry_count(self) -> int:
        """Number of results on disk (memory-only entries excluded)."""
        return len(self._disk_files())

    def total_bytes(self) -> int:
        total = 0
        for p in self._disk_files():
            try:
                total += p.stat().st_size
            except OSError:  # unlinked by a concurrent clear/recompute
                continue
        return total

    def disk_usage(self) -> dict:
        """Entry count and byte total of the disk tier, JSON-shaped.

        The health endpoint and ``repro cache stats`` both read this, so
        operators and the load harness see one set of numbers.
        """
        entries = 0
        total = 0
        for p in self._disk_files():
            try:
                total += p.stat().st_size
            except OSError:  # unlinked by a concurrent clear/evict
                continue
            entries += 1
        return {
            "directory": str(self.directory) if self.directory else None,
            "entries": entries,
            "bytes": total,
        }

    def clear(self) -> int:
        """Drop every entry from both tiers; returns files removed."""
        self._memory.clear()
        if self.directory is None:
            return 0
        with _maintenance_lock(self.directory):
            files = self._disk_files()
            for path in files:
                path.unlink(missing_ok=True)
        return len(files)

    def evict_over_size(self, max_bytes: int) -> int:
        """Evict least-recently-written entries until the tier fits.

        Long-lived serve replicas call this (via ``repro cache prune
        --max-bytes``) to bound disk growth; entries go oldest-mtime
        first, so the hottest (most recently re-written or freshly
        computed) results survive.  Returns the number of files removed.
        Safe against concurrent replicas: the sweep holds the maintenance
        lock, and a file deleted under us is simply skipped.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if self.directory is None:
            return 0
        removed = 0
        with _maintenance_lock(self.directory):
            self.clean_stale_tmp()
            aged: list[tuple[float, int, Path]] = []
            total = 0
            for path in self._disk_files():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                aged.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            aged.sort()
            for _mtime, size, path in aged:
                if total <= max_bytes:
                    break
                try:
                    path.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - read-only cache
                    continue
                total -= size
                removed += 1
        return removed

    def clean_stale_tmp(self, max_age: float = STALE_TMP_SECONDS) -> int:
        """Reclaim ``.tmp-*`` orphans left by writers that crashed mid-put.

        A healthy write holds its temp file for milliseconds, so anything
        older than ``max_age`` is debris.  Returns files removed.
        """
        if self.directory is None or not self.directory.exists():
            return 0
        cutoff = time.time() - max_age
        removed = 0
        for path in self.directory.glob("*/.tmp-*"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink(missing_ok=True)
                    removed += 1
            except OSError:  # raced with its writer or another cleaner
                continue
        return removed

    def prune(self) -> int:
        """Remove entries no *current* job can ever look up again.

        Entries are keyed by schema + source fingerprint, so files written
        under an older schema or an edited codebase are orphaned -- no
        lookup from this checkout will find (and so retire) them.  Only
        invoked explicitly (``python -m repro cache prune``): another
        checkout sharing the cache directory may still be using those
        entries, so sweeping them automatically would thrash.  Returns the
        number of files removed; valid current entries are untouched.
        """
        if self.directory is None:
            return 0
        current = source_fingerprint()
        removed = 0
        with _maintenance_lock(self.directory):
            self.clean_stale_tmp()
            for path in self._disk_files():
                try:
                    text = path.read_text()
                except OSError:
                    continue  # transient I/O: leave the file alone
                try:
                    payload = json.loads(text)
                    if (
                        payload["schema"] == ENGINE_SCHEMA_VERSION
                        and payload.get("source") == current
                    ):
                        continue
                except (ValueError, KeyError, TypeError):
                    pass  # malformed: orphaned either way
                try:
                    path.unlink(missing_ok=True)
                    removed += 1
                except OSError:  # pragma: no cover - read-only cache
                    continue
        return removed

    def describe(self) -> str:
        """One-paragraph human summary for the ``cache show`` CLI."""
        where = str(self.directory) if self.directory else "(memory only)"
        lines = [
            f"cache directory : {where}",
            f"entries on disk : {self.entry_count()}",
            f"size on disk    : {self.total_bytes() / 1024:.1f} KiB",
            f"schema version  : {ENGINE_SCHEMA_VERSION}",
        ]
        if self.stats.lookups:
            lines.append(f"this process    : {self.stats.summary()}")
        return "\n".join(lines)


__all__ = [
    "CacheStats",
    "DEFAULT_MEMORY_ENTRIES",
    "STALE_TMP_SECONDS",
    "ResultCache",
    "default_cache_dir",
]
