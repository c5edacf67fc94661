"""Batch job execution: cache lookup, multiprocess dispatch, ordered results.

:func:`run_jobs` is the engine's core primitive.  It resolves every job
against the cache, ships the misses to a :mod:`multiprocessing` pool in
chunks, stitches the results back in job order, and writes fresh results
through to the cache.  ``workers=0`` executes everything serially in the
calling process -- bit-identical results, one stack to debug.

The :class:`Engine` facade bundles a worker count and a shared cache so the
experiment drivers can stay declarative: they build jobs and call
:meth:`Engine.map`.  Identical points recur across drivers (Figure 7
re-measures Figure 6's grid; Figure 9 re-runs Figure 8's); the suite maps
every section's jobs at once, so :func:`run_jobs` resolves each repeat
inside that one call, with either cache tier or none.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from dataclasses import replace as _replace

from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    EvalJob,
    JobResult,
    batch_key,
    execute_batch,
)

if TYPE_CHECKING:
    # Imported where workers are started: a serial run never pays for it.
    import multiprocessing.pool

#: Callback signature: ``progress(done, total)`` after every finished job.
ProgressFn = Callable[[int, int], None]

#: Callback signature: ``on_result(index, job, result)`` as each job's
#: result lands (cache hits first, then computed jobs in completion
#: order).  The serve front-end's streaming sweeps hang off this.
ResultFn = Callable[[int, EvalJob, JobResult], None]


def default_workers() -> int:
    """Worker-count default: one process per core, at least one."""
    return max(1, os.cpu_count() or 1)


def _group_misses(
    misses: list[tuple[int, EvalJob]],
) -> list[list[tuple[int, EvalJob]]]:
    """Group misses by :func:`batch_key`, preserving first-seen order.

    Each group is one loop's (sub)grid: every (model, budget, estimator,
    kind) point of one graph x machine x policy-knob combination, evaluated
    against one shared :class:`repro.kernel.batch.LoopChain`.
    """
    groups: dict[tuple, list[tuple[int, EvalJob]]] = {}
    for index, job in misses:
        groups.setdefault(batch_key(job), []).append((index, job))
    return list(groups.values())


def _batch_chunks(
    misses: list[tuple[int, EvalJob]], chunksize: int
) -> list[list[list[tuple[int, EvalJob]]]]:
    """Pack whole batch groups into chunks of at least ``chunksize`` jobs.

    Groups are never split across workers (a split group would recompute
    the shared chain on both sides), so a chunk is a list of groups and
    the effective chunk size can exceed ``chunksize`` by one group.
    """
    chunks: list[list[list[tuple[int, EvalJob]]]] = []
    current: list[list[tuple[int, EvalJob]]] = []
    count = 0
    for group in _group_misses(misses):
        current.append(group)
        count += len(group)
        if count >= chunksize:
            chunks.append(current)
            current = []
            count = 0
    if current:
        chunks.append(current)
    return chunks


def _execute_batch_chunk(
    chunk: list[list[tuple[int, EvalJob]]],
) -> list[tuple[int, JobResult]]:
    """Execute one chunk of whole groups inside a worker process.

    Chunked dispatch is the engine's IPC batching: the parent ships one
    pickled chunk per round trip instead of one job, so the shared machine
    and loop objects within a chunk are pickled once (pickle memoizes
    repeated objects within a payload), and each group walks one shared
    chain.  Results return as one message per chunk, too.
    """
    out: list[tuple[int, JobResult]] = []
    for group in chunk:
        results = execute_batch([job for _index, job in group])
        out.extend(
            (index, result)
            for (index, _job), result in zip(group, results)
        )
    return out


def _relabel(job: EvalJob, result: JobResult) -> JobResult:
    """Stamp the requesting loop's name onto a shared result.

    Keys deliberately exclude names, so a cache hit (or in-batch dedup) can
    serve a result computed for a structurally identical but differently
    named loop; the numbers transfer, the label must not.
    """
    if result.loop_name != job.loop.name:
        return _replace(result, loop_name=job.loop.name)
    return result


def run_jobs(
    jobs: Sequence[EvalJob],
    workers: int | None = None,
    cache: ResultCache | None = None,
    chunksize: int | None = None,
    progress: ProgressFn | None = None,
    pool_factory: "Callable[[], multiprocessing.pool.Pool | None] | None" = None,
    cached_flags: list[bool] | None = None,
    on_result: ResultFn | None = None,
) -> list[JobResult]:
    """Execute ``jobs`` and return their results in the same order.

    ``workers=None`` uses one process per core; ``workers=0`` (or a single
    remaining miss) runs serially in-process.  Cached results are never
    re-dispatched.  Cache misses are shipped to the workers in *chunks* of
    ``chunksize`` jobs -- one IPC round (and one pickle payload, with shared
    loop/machine objects deduplicated by the pickler) per chunk instead of
    per job; the default splits the misses four ways per worker.
    ``pool_factory`` lets a caller lend a long-lived pool:
    it is invoked only once cache misses actually require workers (an
    all-hits warm run must not pay worker startup), and a pool it returns
    is used without being closed.

    ``cached_flags``, when given, is filled (in place, one bool per job)
    with each job's provenance: ``True`` for results served without fresh
    computation *for that position* -- cache hits and in-batch duplicates
    -- ``False`` for positions that actually ran the pipeline.  The serve
    front-end's per-request ``cached`` field reads this.  ``on_result``
    fires per finished position (see :data:`ResultFn`).
    """
    if workers is None:
        workers = default_workers()
    if workers < 0:
        raise ValueError("workers must be >= 0")

    total = len(jobs)
    results: list[JobResult | None] = [None] * total
    if cached_flags is not None:
        # Positions start as "served from cache"; finish() flips the ones
        # that actually computed.  Hits and duplicates stay True.
        cached_flags[:] = [True] * total
    misses: list[tuple[int, EvalJob]] = []
    seen_keys: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []  # (index, first index with key)
    for index, job in enumerate(jobs):
        # In-batch duplicates of a pending miss resolve by sharing, before
        # the cache is consulted -- counted as shared, not hits or misses.
        first = seen_keys.get(job.key)
        if first is not None:
            duplicates.append((index, first))
            continue
        cached = cache.get(job) if cache is not None else None
        if cached is not None:
            results[index] = _relabel(job, cached)
            if on_result is not None:
                on_result(index, job, results[index])
            continue
        seen_keys[job.key] = index
        misses.append((index, job))
    if cache is not None:
        cache.stats.shared += len(duplicates)

    done = total - len(misses) - len(duplicates)
    if progress is not None and done:
        progress(done, total)

    def finish(
        index: int, job: EvalJob, result: JobResult, fresh: bool = True
    ) -> None:
        nonlocal done
        results[index] = _relabel(job, result)
        if fresh:
            if cache is not None:
                cache.put(job, result)
            if cached_flags is not None:
                cached_flags[index] = False
        done += 1
        if on_result is not None:
            on_result(index, job, results[index])
        if progress is not None:
            progress(done, total)

    # A one-worker pool would only add IPC overhead; run in-process.
    if workers <= 1 or len(misses) <= 1:
        for group in _group_misses(misses):
            group_results = execute_batch([job for _i, job in group])
            for (index, job), result in zip(group, group_results):
                finish(index, job, result)
    else:
        workers = min(workers, len(misses))
        if chunksize is None:
            chunksize = max(1, len(misses) // (workers * 4))
        # One IPC round per chunk of whole per-loop groups, not per job:
        # see _execute_batch_chunk.  Each loop's chain is built exactly once.
        chunks = _batch_chunks(misses, chunksize)
        shared = pool_factory() if pool_factory is not None else None
        if shared is not None:
            for batch in shared.imap_unordered(_execute_batch_chunk, chunks):
                for index, result in batch:
                    finish(index, jobs[index], result)
        else:
            import multiprocessing

            with multiprocessing.Pool(processes=workers) as ephemeral:
                for batch in ephemeral.imap_unordered(
                    _execute_batch_chunk, chunks
                ):
                    for index, result in batch:
                        finish(index, jobs[index], result)

    for index, first in duplicates:
        finish(index, jobs[index], results[first], fresh=False)
    return results  # type: ignore[return-value]


@dataclass
class Engine:
    """A worker pool plus a result cache, shared across drivers.

    ``workers=0`` gives the serial debugging engine; ``cache=None`` a
    stateless one.  :func:`serial_engine` builds the common in-memory
    default the drivers fall back to when called without an engine.

    The worker pool is created lazily on the first :meth:`map` that has
    cache misses to execute (an all-hits warm run never spawns workers)
    and reused for the engine's lifetime -- a session or sweep issues
    many map calls, and paying worker startup (a full interpreter +
    import under the spawn start method) per call would swamp them.  Call
    :meth:`close` (or use the engine as a context manager) to release the
    workers early; they die with the parent process regardless.
    """

    workers: int | None = None
    cache: ResultCache | None = None
    progress: ProgressFn | None = None
    #: Per-result hook (see :data:`ResultFn`); a per-call ``on_result``
    #: passed to :meth:`map` takes precedence for that call.
    on_result: ResultFn | None = None
    jobs_run: int = field(default=0, init=False)
    _pool: "multiprocessing.pool.Pool | None" = field(
        default=None, init=False, repr=False
    )

    def _shared_pool(self) -> "multiprocessing.pool.Pool | None":
        workers = default_workers() if self.workers is None else self.workers
        if workers <= 1:
            return None
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(processes=workers)
        return self._pool

    def cache_summary(self) -> str | None:
        """One-line hit/miss summary, or ``None`` if nothing was looked up.

        Shared by the runner's trailing Engine section and the report's
        provenance footer, so both always agree on the numbers.
        """
        if self.cache is not None and self.cache.stats.lookups:
            return self.cache.stats.summary()
        return None

    def close(self) -> None:
        """Shut the worker pool down; the engine stays usable (re-spawns)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(
        self,
        jobs: Sequence[EvalJob],
        cached_flags: list[bool] | None = None,
        on_result: ResultFn | None = None,
    ) -> list[JobResult]:
        """Execute jobs (cached, pooled) preserving order.

        ``cached_flags``/``on_result`` pass straight through to
        :func:`run_jobs` (per-position cache provenance, per-result hook).
        """
        self.jobs_run += len(jobs)
        return run_jobs(
            jobs,
            workers=self.workers,
            cache=self.cache,
            progress=self.progress,
            pool_factory=self._shared_pool,
            cached_flags=cached_flags,
            on_result=on_result if on_result is not None else self.on_result,
        )


def serial_engine() -> Engine:
    """The implicit engine of drivers called without one.

    Serial and memory-cached: identical numbers to direct evaluation, and
    points repeated across its maps are computed once.
    """
    return Engine(workers=0, cache=ResultCache(directory=None))


__all__ = [
    "Engine",
    "ProgressFn",
    "ResultFn",
    "default_workers",
    "run_jobs",
    "serial_engine",
]
