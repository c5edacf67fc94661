"""The disk cache as a shared backend: races, crashes, maintenance.

Any number of CLI invocations and `repro serve` processes mount one cache
database concurrently; these tests pin the three contract points the
module docstring promises -- transactional publication (no torn reads),
crash recovery (a writer killed mid-transaction and damaged rows degrade
to recomputation), and transactional maintenance (prune/evict/clear are
safe and remove each row once).
"""

import multiprocessing
import os
import signal
import sqlite3
import threading

import pytest

from repro.core.models import Model
from repro.engine.cache import DB_NAME, ResultCache
from repro.engine.jobs import evaluate_job, execute_job, pressure_job
from repro.machine.config import paper_config
from repro.workloads.kernels import kernel_names, make_kernel


@pytest.fixture()
def machine():
    return paper_config(6)


@pytest.fixture()
def job(machine):
    return pressure_job(make_kernel("daxpy"), machine)


#: Disk reads after each put: the other writer's puts land between them.
READS_PER_PUT = 5


def _hammer(directory, kernel, rounds, out):
    """Subprocess body: write and read one key ``rounds`` times."""
    machine = paper_config(6)
    job = pressure_job(make_kernel(kernel), machine)
    result = execute_job(job)
    cache = ResultCache(directory=directory)
    torn = corrupt = 0
    for _ in range(rounds):
        cache.put(job, result)
        fresh = ResultCache(directory=directory)  # its own connection
        for _ in range(READS_PER_PUT):
            # Bypass the in-memory tier: the race under test is disk-level.
            fresh._memory.clear()
            seen = fresh.get(job)
            if seen is not None and seen != result:
                torn += 1
        corrupt += fresh.stats.corrupt
    out.put((torn, corrupt))


class TestConcurrentWriters:
    def test_two_processes_same_key_never_tear(self, tmp_path, job):
        """Concurrent writers of one key: readers only ever see a full
        entry with the right payload (atomic rename publication)."""
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hammer, args=(tmp_path / "cache", "daxpy", 300, out)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        reports = [out.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        for torn, corrupt in reports:
            assert torn == 0, "a reader saw a wrong-payload entry"
            assert corrupt == 0, "a reader saw a torn (unparseable) entry"
        # Exactly one published entry remains, and it round-trips.
        cache = ResultCache(directory=tmp_path / "cache")
        assert cache.entry_count() == 1
        assert cache.get(job) == execute_job(job)

    def test_concurrent_distinct_keys_all_land(self, tmp_path, machine):
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        kernels = list(kernel_names())[:2]
        procs = [
            ctx.Process(
                target=_hammer, args=(tmp_path / "cache", name, 10, out)
            )
            for name in kernels
        ]
        for p in procs:
            p.start()
        for _ in procs:
            out.get(timeout=120)
        for p in procs:
            p.join(timeout=60)
        cache = ResultCache(directory=tmp_path / "cache")
        assert cache.entry_count() == len(kernels)


def _die_inside_transaction(directory, job, result):
    """Subprocess body: put inside an open transaction, then get killed.

    A padding row larger than the page cache forces SQLite to spill the
    uncommitted pages into the WAL first, so the crash leaves them on disk.
    """
    cache = ResultCache(directory=directory)
    cache._sql("BEGIN", create=True)
    cache.put(job, result)
    cache._sql(
        "INSERT INTO results VALUES ('pad', 0, '', '', ?, 0)",
        ("x" * (4 << 20),),
    )
    os.kill(os.getpid(), signal.SIGKILL)


class TestThreads:
    def test_usage_reads_race_puts_safely(self, tmp_path, machine):
        """The health endpoint reads usage outside the session lock, in
        parallel with the puts of a request thread: one connection, its
        own lock, every put stored and every read consistent."""
        cache = ResultCache(directory=tmp_path / "cache")
        jobs = [
            evaluate_job(make_kernel(name), machine, Model.UNIFIED, budget)
            for name in list(kernel_names())[:3]
            for budget in (16, 32, 64)
        ]
        results = [execute_job(job) for job in jobs]
        seen: list[list[int]] = [[] for _ in range(3)]
        stop = threading.Event()

        def poll(out):
            while not stop.is_set():
                out.append(cache.disk_usage()["entries"])

        readers = [threading.Thread(target=poll, args=(out,)) for out in seen]
        for reader in readers:
            reader.start()
        try:
            for _ in range(20):
                for job, result in zip(jobs, results):
                    cache.put(job, result)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=60)
        assert cache.stats.stores == 20 * len(jobs)
        for counts in seen:  # entries only ever grow, never past the jobs
            assert counts == sorted(counts) and counts[-1] <= len(jobs)
        assert cache.entry_count() == len(jobs)
        fresh = ResultCache(directory=tmp_path / "cache")
        assert [fresh.get(job) for job in jobs] == results


class TestCrashRecovery:
    def test_truncated_row_is_a_miss_then_self_heals(self, tmp_path, job):
        """A torn payload (a killed writer cannot produce one, but disk
        corruption can) degrades to a miss, is deleted, and the next put
        restores service."""
        cache = ResultCache(directory=tmp_path / "cache")
        result = execute_job(job)
        cache.put(job, result)
        with sqlite3.connect(tmp_path / "cache" / DB_NAME) as db:
            db.execute(  # tear it mid-JSON
                "UPDATE results SET payload = substr(payload, 1, bytes / 2)"
            )

        fresh = ResultCache(directory=tmp_path / "cache")
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1
        assert fresh.entry_count() == 0, "the torn row must be retired"
        fresh.put(job, result)
        assert ResultCache(directory=tmp_path / "cache").get(job) == result

    def test_writer_killed_inside_its_transaction_leaves_no_row(
        self, tmp_path, job
    ):
        directory = tmp_path / "cache"
        result = execute_job(job)
        ctx = multiprocessing.get_context()
        writer = ctx.Process(
            target=_die_inside_transaction, args=(directory, job, result)
        )
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == -signal.SIGKILL
        wal = directory / f"{DB_NAME}-wal"
        assert wal.stat().st_size > 1 << 20, "uncommitted pages on disk"

        fresh = ResultCache(directory=directory)
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 0
        assert fresh.entry_count() == 0
        with sqlite3.connect(directory / DB_NAME) as db:
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        fresh.put(job, result)
        assert ResultCache(directory=directory).get(job) == result

    def test_put_leaves_only_the_database(self, tmp_path, job):
        """No per-entry files, temp files or lock files: one database."""
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(job, execute_job(job))
        names = {path.name for path in (tmp_path / "cache").iterdir()}
        assert names <= {DB_NAME, f"{DB_NAME}-wal", f"{DB_NAME}-shm"}
        assert DB_NAME in names


class TestMaintenance:
    def test_disk_usage_counts_entries_and_bytes(self, tmp_path, machine):
        cache = ResultCache(directory=tmp_path / "cache")
        assert cache.disk_usage() == {
            "directory": str(tmp_path / "cache"),
            "entries": 0,
            "bytes": 0,
        }
        for name in list(kernel_names())[:3]:
            job = pressure_job(make_kernel(name), machine)
            cache.put(job, execute_job(job))
        usage = cache.disk_usage()
        assert usage["entries"] == 3
        with sqlite3.connect(tmp_path / "cache" / DB_NAME) as db:
            (payload_bytes,) = db.execute(
                "SELECT sum(length(payload)) FROM results"
            ).fetchone()
        assert usage["bytes"] == cache.total_bytes() == payload_bytes > 0

    def test_disk_usage_memory_only(self):
        assert ResultCache().disk_usage() == {
            "directory": None,
            "entries": 0,
            "bytes": 0,
        }

    def test_evict_over_size_drops_oldest_first(self, tmp_path, machine):
        cache = ResultCache(directory=tmp_path / "cache")
        jobs = [
            pressure_job(make_kernel(name), machine)
            for name in list(kernel_names())[:3]
        ]
        results = [execute_job(job) for job in jobs]
        for job, result in zip(jobs, results):
            cache.put(job, result)
        cache.put(jobs[0], results[0])  # rewritten: now the newest
        with sqlite3.connect(tmp_path / "cache" / DB_NAME) as db:
            sizes = dict(db.execute("SELECT key, bytes FROM results"))
        keep = sizes[jobs[0].key] + sizes[jobs[2].key]
        assert cache.evict_over_size(keep) == 1
        with sqlite3.connect(tmp_path / "cache" / DB_NAME) as db:
            survivors = {key for (key,) in db.execute("SELECT key FROM results")}
        assert survivors == {jobs[0].key, jobs[2].key}
        assert cache.evict_over_size(keep - 1) == 1
        assert ResultCache(directory=tmp_path / "cache").get(jobs[0]) == (
            results[0]
        )

    def test_evict_over_size_zero_clears_everything(self, tmp_path, job):
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(job, execute_job(job))
        assert cache.evict_over_size(0) == 1
        assert cache.entry_count() == 0

    def test_evict_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(directory=tmp_path).evict_over_size(-1)

    def test_evict_noop_when_under_budget(self, tmp_path, job):
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(job, execute_job(job))
        assert cache.evict_over_size(10**9) == 0
        assert cache.entry_count() == 1

    def test_maintenance_never_creates_the_directory(self, tmp_path, job):
        """Read-only uses on a mistyped path must not write anything."""
        missing = tmp_path / "no-such-cache"
        cache = ResultCache(directory=missing)
        assert cache.clear() == 0
        assert cache.prune() == 0
        assert cache.evict_over_size(0) == 0
        assert cache.get(job) is None
        assert cache.disk_usage()["entries"] == 0
        assert "entries on disk : 0" in cache.describe()
        assert not missing.exists()

    @pytest.mark.parametrize("action", ["show", "stats", "prune", "clear"])
    def test_cli_on_a_missing_directory_creates_nothing(
        self, tmp_path, action, capsys
    ):
        from repro.__main__ import main as cli_main

        missing = tmp_path / "no-such-cache"
        assert cli_main(["cache", action, "--cache-dir", str(missing)]) == 0
        assert " 0" in capsys.readouterr().out  # zero entries, none removed
        assert not missing.exists()

    def test_cli_stats_reports_usage(self, tmp_path, machine, capsys):
        from repro.__main__ import main as cli_main

        cache = ResultCache(directory=tmp_path / "cache")
        job = pressure_job(make_kernel("daxpy"), machine)
        cache.put(job, execute_job(job))
        code = cli_main(
            ["cache", "stats", "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "entries:   1" in out
        assert str(tmp_path / "cache") in out

    def test_cli_prune_max_bytes_evicts(self, tmp_path, machine, capsys):
        from repro.__main__ import main as cli_main

        cache = ResultCache(directory=tmp_path / "cache")
        for name in list(kernel_names())[:3]:
            job = pressure_job(make_kernel(name), machine)
            cache.put(job, execute_job(job))
        code = cli_main(
            [
                "cache",
                "prune",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--max-bytes",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 0" in out  # current-source entries are not orphans
        assert "evicted 3" in out
        assert cache.entry_count() == 0

    @pytest.mark.parametrize(
        "sweeps", [("evict", "evict"), ("clear", "evict"), ("clear", "clear")]
    )
    def test_racing_sweeps_remove_each_row_once(
        self, tmp_path, machine, sweeps
    ):
        """Processes clearing/evicting at once: every row is removed
        exactly once overall and every sweep exits cleanly."""

        def sweep(directory, action, out):
            cache = ResultCache(directory=directory)
            if action == "clear":
                out.put(cache.clear())
            else:
                out.put(cache.evict_over_size(0))

        cache = ResultCache(directory=tmp_path / "cache")
        jobs = [
            evaluate_job(make_kernel(name), machine, Model.UNIFIED, budget)
            for name in list(kernel_names())[:4]
            for budget in (16, 32, 64)
        ]
        for job in jobs:
            cache.put(job, execute_job(job))
        assert cache.entry_count() == len(jobs)
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=sweep, args=(tmp_path / "cache", action, out))
            for action in sweeps
        ]
        for p in procs:
            p.start()
        removed = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert sum(removed) == len(jobs)
        assert cache.entry_count() == 0
