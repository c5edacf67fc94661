"""Result-cache behavior: hits, misses, persistence, corruption, LRU."""

import json
import sqlite3

import pytest

from repro.core.models import Model
from repro.engine.cache import DB_NAME, ResultCache
from repro.engine.jobs import (
    ENGINE_SCHEMA_VERSION,
    evaluate_job,
    execute_job,
    pressure_job,
    result_to_dict,
)
from repro.machine.config import paper_config
from repro.workloads.kernels import make_kernel


@pytest.fixture()
def machine():
    return paper_config(6)


@pytest.fixture()
def job(machine):
    return pressure_job(make_kernel("daxpy"), machine)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(directory=tmp_path / "cache")


class TestHitMiss:
    def test_empty_cache_misses(self, cache, job):
        assert cache.get(job) is None
        assert cache.stats.misses == 1

    def test_put_then_hit(self, cache, job):
        result = execute_job(job)
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.stats.hits == 1

    def test_persists_across_instances(self, tmp_path, job):
        first = ResultCache(directory=tmp_path / "c")
        result = execute_job(job)
        first.put(job, result)
        second = ResultCache(directory=tmp_path / "c")
        assert second.get(job) == result
        assert second.stats.hits == 1

    def test_distinct_jobs_distinct_entries(self, cache, machine):
        loop = make_kernel("daxpy")
        a = evaluate_job(loop, machine, Model.UNIFIED, 16)
        b = evaluate_job(loop, machine, Model.UNIFIED, 32)
        cache.put(a, execute_job(a))
        assert cache.get(b) is None
        assert cache.entry_count() == 1

    def test_memory_only_cache(self, job):
        cache = ResultCache(directory=None)
        result = execute_job(job)
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.entry_count() == 0


def _row(cache, job):
    """The stored ``(schema, payload)`` of ``job``, read past the cache."""
    with sqlite3.connect(cache.directory / DB_NAME) as db:
        return db.execute(
            "SELECT schema, payload FROM results WHERE key = ?", (job.key,)
        ).fetchone()


def _rewrite(cache, job, **columns):
    """Overwrite columns of ``job``'s row, as disk damage would."""
    assignments = ", ".join(f"{name} = ?" for name in columns)
    with sqlite3.connect(cache.directory / DB_NAME) as db:
        db.execute(
            f"UPDATE results SET {assignments} WHERE key = ?",
            (*columns.values(), job.key),
        )


class TestCorruption:
    def _fresh(self, cache):
        """Same directory, empty memory tier -- forces a disk read."""
        return ResultCache(directory=cache.directory)

    def test_garbage_json_is_a_miss_and_removed(self, cache, job):
        cache.put(job, execute_job(job))
        _rewrite(cache, job, payload="{ not json")
        fresh = self._fresh(cache)
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1
        assert _row(cache, job) is None

    def test_key_mismatch_rejected(self, cache, job):
        cache.put(job, execute_job(job))
        payload = json.loads(_row(cache, job)[1])
        payload["key"] = "0" * 64
        _rewrite(cache, job, payload=json.dumps(payload))
        fresh = self._fresh(cache)
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1
        assert _row(cache, job) is None

    def test_schema_mismatch_rejected(self, cache, job):
        cache.put(job, execute_job(job))
        _rewrite(cache, job, schema=-1)
        fresh = self._fresh(cache)
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1
        assert _row(cache, job) is None

    def test_truncated_result_rejected(self, cache, job):
        cache.put(job, execute_job(job))
        payload = json.loads(_row(cache, job)[1])
        del payload["result"]["unified"]
        _rewrite(cache, job, payload=json.dumps(payload))
        fresh = self._fresh(cache)
        assert fresh.get(job) is None
        assert fresh.stats.corrupt == 1

    def test_corrupt_entry_recomputed_and_restored(self, cache, job):
        result = execute_job(job)
        cache.put(job, result)
        _rewrite(cache, job, payload="junk")
        fresh = self._fresh(cache)
        assert fresh.get(job) is None
        fresh.put(job, result)
        assert self._fresh(cache).get(job) == result


class TestLruAndMaintenance:
    def test_memory_tier_bounded(self, machine):
        cache = ResultCache(directory=None, max_memory_entries=4)
        jobs = [
            evaluate_job(make_kernel("daxpy"), machine, Model.UNIFIED, budget)
            for budget in (8, 12, 16, 20, 24, 28)
        ]
        for j in jobs:
            cache.put(j, execute_job(j))
        assert len(cache._memory) == 4
        # Oldest entries were evicted; without a disk tier they miss.
        assert cache.get(jobs[0]) is None
        assert cache.get(jobs[-1]) is not None

    def test_clear(self, cache, job):
        cache.put(job, execute_job(job))
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert cache.entry_count() == 0
        assert cache.get(job) is None

    def test_describe_mentions_directory(self, cache, job):
        cache.put(job, execute_job(job))
        text = cache.describe()
        assert str(cache.directory) in text
        assert "entries on disk : 1" in text

    def test_prune_removes_orphaned_sources_keeps_current(self, cache, job):
        cache.put(job, execute_job(job))
        schema, payload = _row(cache, job)
        with sqlite3.connect(cache.directory / DB_NAME) as db:
            # An entry keyed by an edited codebase.
            db.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)",
                ("f" * 64, schema, "0" * 64, job.kind, payload, 1),
            )
        assert cache.entry_count() == 2
        assert cache.prune() == 1
        assert cache.entry_count() == 1
        assert _row(cache, job) is not None
        assert cache.get(job) is not None

    def test_prune_removes_old_schema_entries(self, cache, job):
        cache.put(job, execute_job(job))
        with sqlite3.connect(cache.directory / DB_NAME) as db:
            db.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)",
                ("e" * 64, -3, "0" * 64, job.kind, "{}", 2),
            )
        assert cache.prune() == 1
        assert cache.entry_count() == 1
        assert cache.get(job) is not None  # current entry untouched


class TestLegacyLayout:
    """Files of the earlier one-JSON-file-per-result layout."""

    def _legacy(self, directory, job, result):
        shard = directory / job.key[:2]
        shard.mkdir(parents=True)
        path = shard / f"{job.key}.json"
        path.write_text(
            json.dumps(
                {
                    "schema": ENGINE_SCHEMA_VERSION,
                    "key": job.key,
                    "result": result_to_dict(result),
                }
            )
        )
        return path

    def test_legacy_files_are_ignored(self, cache, job):
        self._legacy(cache.directory, job, execute_job(job))
        assert cache.get(job) is None
        assert cache.disk_usage()["entries"] == 0
        assert not (cache.directory / DB_NAME).exists()

    def test_clear_removes_legacy_files_and_nothing_foreign(self, cache, job):
        result = execute_job(job)
        path = self._legacy(cache.directory, job, result)
        cache.put(job, result)
        foreign = [
            cache.directory / "notes.json",
            cache.directory / "zz" / ("a" * 64 + ".json"),
            path.parent / "short.json",
        ]
        for other in foreign:
            other.parent.mkdir(exist_ok=True)
            other.write_text("{}")
        assert cache.clear() == 2  # the row and the legacy file
        assert not path.exists()
        assert all(other.exists() for other in foreign)
        assert cache.entry_count() == 0

    def test_clear_drops_emptied_shard_directories(self, cache, job):
        path = self._legacy(cache.directory, job, execute_job(job))
        assert cache.clear() == 1
        assert not path.parent.exists()
        assert cache.directory.exists()
