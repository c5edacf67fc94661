"""Disk-tier failures degrade to recomputation, one test per failure mode.

Each test runs a grid through :func:`repro.engine.pool.run_jobs` over a
damaged or unusable database and checks the same four things: the run
finishes, every answer equals the cacheless answer, no wrong answer is
cached, and no torn row is left behind.
"""

import os
import sqlite3

import pytest

from repro.core.models import Model
from repro.engine import cache as cache_module
from repro.engine.cache import DB_NAME, SQLITE_HEADER, ResultCache
from repro.engine.jobs import evaluate_job, pressure_job
from repro.engine.pool import run_jobs
from repro.machine.config import paper_config
from repro.workloads.kernels import kernel_names, make_kernel


@pytest.fixture(scope="module")
def jobs():
    machine = paper_config(6)
    out = []
    for name in list(kernel_names())[:3]:
        loop = make_kernel(name)
        out.append(pressure_job(loop, machine))
        out.extend(
            evaluate_job(loop, machine, model, 32)
            for model in (Model.UNIFIED, Model.SWAPPED)
        )
    return out


@pytest.fixture(scope="module")
def expected(jobs):
    return run_jobs(jobs, workers=0, cache=None)


def _run(jobs, cache):
    return run_jobs(jobs, workers=0, cache=cache)


def _stored_rows_are_right(directory, jobs, expected):
    """Every row a fresh reader can see round-trips to the right answer."""
    fresh = ResultCache(directory=directory)
    for job, want in zip(jobs, expected):
        seen = fresh.get(job)
        assert seen is None or seen == want
    assert fresh.stats.corrupt == 0
    return fresh.stats.hits


def _integrity(directory):
    with sqlite3.connect(directory / DB_NAME) as db:
        return db.execute("PRAGMA integrity_check").fetchone()[0]


class TestUnusableDatabase:
    def test_unopenable_database_file(self, tmp_path, jobs, expected):
        directory = tmp_path / "cache"
        (directory / DB_NAME).mkdir(parents=True)  # a directory, not a file
        cache = ResultCache(directory=directory)
        assert _run(jobs, cache) == expected
        assert cache.stats.stores == 0
        assert cache.disk_usage()["entries"] == 0
        assert ResultCache(directory=directory).get(jobs[0]) is None

    def test_database_full_of_garbage(self, tmp_path, jobs, expected):
        directory = tmp_path / "cache"
        directory.mkdir()
        garbage = os.urandom(8192)
        (directory / DB_NAME).write_bytes(garbage)
        for sidecar in ("-wal", "-shm"):
            (directory / f"{DB_NAME}{sidecar}").write_bytes(garbage)
        bystander = directory / "notes.txt"
        bystander.write_bytes(garbage)
        cache = ResultCache(directory=directory)
        assert _run(jobs, cache) == expected
        assert _run(jobs, ResultCache(directory=directory)) == expected
        assert cache.stats.stores == 0
        assert cache.disk_usage()["entries"] == 0
        assert cache.clear() == 0
        # The garbage and its sidecars are gone; nothing else is touched.
        assert sorted(p.name for p in directory.iterdir()) == ["notes.txt"]
        assert bystander.read_bytes() == garbage
        # Healed: the next put starts a fresh database that round-trips.
        cache.put(jobs[0], expected[0])
        assert cache.stats.stores == 1
        assert ResultCache(directory=directory).get(jobs[0]) == expected[0]
        assert _integrity(directory) == "ok"

    def test_clear_keeps_a_database_it_can_open(
        self, tmp_path, jobs, expected
    ):
        """A real database, even an empty one, is cleared, not deleted."""
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / DB_NAME).touch()  # SQLite's own empty database
        cache = ResultCache(directory=directory)
        assert cache.clear() == 0
        assert (directory / DB_NAME).exists()
        assert _run(jobs, cache) == expected
        assert cache.clear() == len(jobs)
        assert (directory / DB_NAME).read_bytes().startswith(SQLITE_HEADER)


class TestWriteFailures:
    def test_database_full(self, tmp_path, jobs, expected):
        """``SQLITE_FULL`` mid-grid: later puts are dropped, whole."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory=directory)
        assert _run(jobs[:1], cache) == expected[:1]
        (pages,) = cache._sql("PRAGMA page_count")[0][0]
        cache._sql(f"PRAGMA max_page_count = {pages}")
        full = cache._sql(
            "INSERT INTO results VALUES ('filler', 0, '', '', ?, 0)",
            ("x" * 8192,),
        )
        assert full is None, "the database must be full now"
        assert _run(jobs, cache) == expected
        assert cache.stats.stores < len(jobs)
        assert _integrity(directory) == "ok"
        assert _stored_rows_are_right(directory, jobs, expected) >= 1

    def test_read_only_database(self, tmp_path, jobs, expected):
        """``SQLITE_READONLY``, which a read-only file or directory raises;
        ``query_only`` produces it whatever the process's privileges."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory=directory)
        assert _run(jobs[:2], cache) == expected[:2]
        cache._memory.clear()
        cache._sql("PRAGMA query_only = ON")
        stores = cache.stats.stores
        assert _run(jobs, cache) == expected
        assert cache.stats.stores == stores
        assert cache.stats.hits == 2  # reads still work
        assert _stored_rows_are_right(directory, jobs, expected) == 2

    def test_read_only_directory(self, tmp_path, jobs, expected):
        directory = tmp_path / "cache"
        assert _run(jobs[:2], ResultCache(directory=directory)) == expected[:2]
        db = directory / DB_NAME
        db.chmod(0o444)
        directory.chmod(0o555)
        try:
            if os.access(directory, os.W_OK):
                pytest.skip("this process writes through permission bits")
            cache = ResultCache(directory=directory)
            assert _run(jobs, cache) == expected
            assert cache.stats.stores == 0
        finally:
            directory.chmod(0o755)
            db.chmod(0o644)
        assert _stored_rows_are_right(directory, jobs, expected) == 2

    def test_locked_past_the_busy_timeout(
        self, tmp_path, jobs, expected, monkeypatch
    ):
        """Another process holds the write lock past ``BUSY_TIMEOUT_S``:
        puts are dropped, WAL reads carry on, and writing resumes once
        the lock is released."""
        monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_S", 0.05)
        directory = tmp_path / "cache"
        cache = ResultCache(directory=directory)
        assert _run(jobs[:1], cache) == expected[:1]
        holder = sqlite3.connect(directory / DB_NAME, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            holder.execute(
                "INSERT INTO results VALUES ('uncommitted', 0, '', '', '', 0)"
            )
            assert _run(jobs, cache) == expected
            assert cache.stats.stores == 1
            reader = ResultCache(directory=directory)
            assert reader.get(jobs[0]) == expected[0]
            assert reader.disk_usage()["entries"] == 1
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        cache._memory.clear()
        assert _run(jobs, cache) == expected
        assert cache.stats.stores == len(jobs)
        assert _stored_rows_are_right(directory, jobs, expected) == len(jobs)


class TestDamagedRows:
    @pytest.mark.parametrize(
        "damage",
        [
            "payload = '{\"key\": '",
            "schema = schema + 1",
            "payload = replace(payload, key, 'f')",
        ],
        ids=["bad-json", "wrong-schema", "wrong-key"],
    )
    def test_damaged_row_is_recomputed(self, tmp_path, jobs, expected, damage):
        directory = tmp_path / "cache"
        assert _run(jobs, ResultCache(directory=directory)) == expected
        with sqlite3.connect(directory / DB_NAME) as db:
            db.execute(f"UPDATE results SET {damage} WHERE key = ?", (jobs[1].key,))
        cache = ResultCache(directory=directory)
        assert _run(jobs, cache) == expected
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        assert _stored_rows_are_right(directory, jobs, expected) == len(jobs)
