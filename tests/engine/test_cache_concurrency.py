"""The disk cache as a shared backend: races, crashes, maintenance.

Any number of CLI invocations and `repro serve` processes mount one cache
directory concurrently; these tests pin the three contract points the
module docstring promises -- atomic publication (no torn reads), crash
recovery (``.tmp-*`` orphans and truncated entries degrade to
recomputation), and locked maintenance (prune/evict/clear are safe and
bounded).
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine.cache import STALE_TMP_SECONDS, ResultCache
from repro.engine.jobs import execute_job, pressure_job
from repro.machine.config import paper_config
from repro.workloads.kernels import kernel_names, make_kernel


@pytest.fixture()
def machine():
    return paper_config(6)


@pytest.fixture()
def job(machine):
    return pressure_job(make_kernel("daxpy"), machine)


def _hammer(directory, kernel, rounds, out):
    """Subprocess body: write and read one key ``rounds`` times."""
    machine = paper_config(6)
    job = pressure_job(make_kernel(kernel), machine)
    result = execute_job(job)
    cache = ResultCache(directory=directory)
    torn = 0
    for _ in range(rounds):
        cache.put(job, result)
        # Bypass the in-memory tier: the race under test is disk-level.
        fresh = ResultCache(directory=directory)
        seen = fresh.get(job)
        if seen is not None and seen != result:
            torn += 1
    out.put((torn, cache.stats.corrupt))


class TestConcurrentWriters:
    def test_two_processes_same_key_never_tear(self, tmp_path, job):
        """Concurrent writers of one key: readers only ever see a full
        entry with the right payload (atomic rename publication)."""
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hammer, args=(tmp_path / "cache", "daxpy", 40, out)
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


class TestCrashRecovery:
    def test_truncated_entry_is_a_miss_then_self_heals(self, tmp_path, job):
        """A torn final file (crash between write and rename cannot produce
        one, but disk corruption can) degrades to a miss, is deleted, and
        the next put restores service."""
        cache = ResultCache(directory=tmp_path / "cache")
        result = execute_job(job)
        cache.put(job, result)
        path = cache._path(job.key)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # tear it mid-JSON

        fresh = ResultCache(directory=tmp_path / "cache")
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1
        assert not path.exists(), "the torn entry must be retired"
        fresh.put(job, result)
        assert ResultCache(directory=tmp_path / "cache").get(job) == result

    def test_crash_mid_write_leaves_no_entry_and_tmp_is_reclaimed(
        self, tmp_path, job
    ):
        """Simulate a writer dying between mkstemp and os.replace: the
        orphan must never satisfy a lookup, and an aged orphan is swept."""
        cache = ResultCache(directory=tmp_path / "cache")
        result = execute_job(job)
        cache.put(job, result)  # lay the shard directory down
        shard = cache._path(job.key).parent
        orphan = shard / ".tmp-deadbeef.json"
        orphan.write_text('{"half": "a payload')
        assert ResultCache(directory=tmp_path / "cache").get(job) == result

        # Too young to sweep: an in-flight writer must not be raced.
        assert cache.clean_stale_tmp() == 0
        assert orphan.exists()
        # Age it past the stale horizon and it is debris.
        old = time.time() - STALE_TMP_SECONDS - 60
        os.utime(orphan, (old, old))
        assert cache.clean_stale_tmp() == 1
        assert not orphan.exists()

    def test_prune_sweeps_stale_tmp_too(self, tmp_path, job):
        cache = ResultCache(directory=tmp_path / "cache")
        cache.put(job, execute_job(job))
        shard = cache._path(job.key).parent
        orphan = shard / ".tmp-crashed.json"
        orphan.write_text("{}")
        old = time.time() - STALE_TMP_SECONDS - 60
        os.utime(orphan, (old, old))
        assert cache.prune() == 0  # the live entry survives
        assert not orphan.exists()


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
        assert usage["bytes"] == cache.total_bytes() > 0

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
        for age, job in enumerate(jobs):
            cache.put(job, execute_job(job))
            path = cache._path(job.key)
            stamp = time.time() - 1000 + age  # jobs[0] oldest on disk
            os.utime(path, (stamp, stamp))
        keep = cache._path(jobs[-1].key).stat().st_size
        removed = cache.evict_over_size(keep)
        assert removed == 2
        survivors = cache._disk_files()
        assert survivors == [cache._path(jobs[-1].key)]

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

    def test_maintenance_never_creates_the_directory(self, tmp_path):
        """Read-only uses on a mistyped path must not write anything."""
        missing = tmp_path / "no-such-cache"
        cache = ResultCache(directory=missing)
        assert cache.clear() == 0
        assert cache.prune() == 0
        assert cache.evict_over_size(0) == 0
        assert cache.clean_stale_tmp() == 0
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

    def test_concurrent_maintenance_is_serialized(self, tmp_path, machine):
        """Two processes pruning/evicting at once: every file is removed
        exactly once overall and both sweeps exit cleanly."""

        def sweep(directory, out):
            cache = ResultCache(directory=directory)
            out.put(cache.evict_over_size(0))

        cache = ResultCache(directory=tmp_path / "cache")
        for name in list(kernel_names())[:4]:
            job = pressure_job(make_kernel(name), machine)
            cache.put(job, execute_job(job))
        ctx = multiprocessing.get_context()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=sweep, args=(tmp_path / "cache", out))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        removed = [out.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert sum(removed) == 4
        assert cache.entry_count() == 0
