"""Batch job execution: cache lookup, multiprocess dispatch, ordered results.

:func:`run_jobs` is the engine's core primitive.  It resolves every job
against the cache, groups the misses per loop, runs the groups on a
:class:`WorkerPool` (a proof streams each point back as soon as it is
proved), stitches the results back in job order, and writes fresh
results through to the cache.  ``workers=0`` executes
everything serially in the calling process -- bit-identical results, one
stack to debug.

The :class:`Engine` facade bundles a worker count and a shared cache so the
experiment drivers can stay declarative: they build jobs and call
:meth:`Engine.map`.  Identical points recur across drivers (Figure 7
re-measures Figure 6's grid; Figure 9 re-runs Figure 8's); the suite maps
every section's jobs at once, so :func:`run_jobs` resolves each repeat
inside that one call, with either cache tier or none.  The static proof
is one such map too, with ``prove=True`` (:mod:`repro.check.coverage`).
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from dataclasses import replace as _replace

from repro.engine.jobs import (
    EvalJob,
    JobResult,
    batch_key,
    execute_batch,
    lent_chains,
)

if TYPE_CHECKING:
    # Imported where workers are started: a serial run never pays for it.
    import multiprocessing.connection
    import multiprocessing.process

    # Imported by the callers that hold a cache: the proof holds none.
    from repro.engine.cache import ResultCache

#: Callback signature: ``progress(done, total)`` after every finished job.
ProgressFn = Callable[[int, int], None]

#: Callback signature: ``on_result(index, job, result)`` as each job's
#: result lands (cache hits first, then computed jobs in completion
#: order).  The serve front-end's streaming sweeps hang off this.
ResultFn = Callable[[int, EvalJob, JobResult], None]

#: One loop's misses: ``(index in the map, job)`` pairs sharing a chain.
Group = list[tuple[int, EvalJob]]


def default_workers() -> int:
    """Worker-count default: one process per core, at least one."""
    return max(1, os.cpu_count() or 1)


def _group_misses(misses: Group) -> list[Group]:
    """Group misses by :func:`batch_key`, preserving first-seen order.

    Each group is one loop's (sub)grid: every (model, budget, estimator,
    kind) point of one graph x machine x policy-knob combination, evaluated
    against one shared :class:`repro.kernel.batch.LoopChain`.
    """
    groups: dict[tuple, Group] = {}
    for index, job in misses:
        groups.setdefault(batch_key(job), []).append((index, job))
    return list(groups.values())


def _tasks(groups: list[Group], size: int) -> list[list[Group]]:
    """Pack consecutive groups into tasks of at least ``size`` jobs.

    A group is never split (a split group would build its chain on both
    sides), so a task can exceed ``size`` by one group.
    """
    tasks: list[list[Group]] = []
    current: list[Group] = []
    count = 0
    for group in groups:
        current.append(group)
        count += len(group)
        if count >= size:
            tasks.append(current)
            current, count = [], 0
    if current:
        tasks.append(current)
    return tasks


def _run_task(
    task: list[Group],
    prove: bool,
    send: Callable[[list[tuple[int, JobResult]]], None],
) -> None:
    """Run one task's groups, sending ``(index, result)`` pairs back.

    A proving task sends each job's result the moment it is proved, so a
    point never waits for its loop's slower siblings.  Each job is one
    ``execute_batch([job], prove=True)`` call over a one-chain memo per
    group (:func:`~repro.engine.jobs.lent_chains`), so the nodes the
    group's first job computed serve the rest, as one call over the whole
    group would.  Any other task sends all its results in one message once
    every group is done: its jobs are cheap enough that a message per job
    would cost more than the job, and a task that fails sends none.
    """
    if not prove:
        send(
            [
                (index, result)
                for group in task
                for (index, _job), result in zip(
                    group, execute_batch([job for _index, job in group])
                )
            ]
        )
        return
    for group in task:
        with lent_chains({}):
            for index, job in group:
                (result,) = execute_batch([job], prove=True)
                send([(index, result)])


class WorkerLost(RuntimeError):
    """A worker process exited while its pool was running a map."""


def _worker(connection: "multiprocessing.connection.Connection") -> None:
    """A worker's loop: run each task it is sent, send the results back.

    Messages back are lists of ``(index, result)`` pairs (see
    :func:`_run_task`), or the exception the task raised; the worker
    then waits for its next task.
    """
    while True:
        try:
            task, prove = connection.recv()
        except EOFError:  # the parent closed the pool
            return
        try:
            _run_task(task, prove, connection.send)
        except Exception as error:  # noqa: BLE001 -- re-raised by the parent
            try:
                connection.send(error)
            except Exception:  # noqa: BLE001 -- an error that cannot pickle
                connection.send(RuntimeError(repr(error)))


#: A worker process and the parent's end of its pipe.
_Worker = tuple[
    "multiprocessing.process.BaseProcess",
    "multiprocessing.connection.Connection",
]


def _stop_workers(workers: list[_Worker]) -> None:
    for process, connection in workers:
        process.terminate()
        connection.close()
    for process, _connection in workers:
        process.join()


class WorkerPool:
    """Worker processes that each run one task at a time.

    A task is a run of whole loop groups (see :func:`run_jobs`).  Every
    worker has its own pipe.  :meth:`run` hands the map's tasks out in
    order, each to a worker with room for it, so the heavy loops at the
    end of a suite spread over the workers instead of queueing behind
    one.  A worker holds its running task and at most one more, sent
    ahead so it does not wait for the parent between tasks; a task sent
    ahead is at most ``PREFETCH_BYTES`` pickled, so it fits the pipe's
    buffer and the parent never blocks on a busy worker.  A worker that
    exits mid-map (killed, out of memory) makes :meth:`run`
    raise :class:`WorkerLost` at once, and a map that does not finish --
    a lost worker, a task that raised, a caller that stopped reading --
    closes the pool: its workers may hold work of that map.  An
    :class:`Engine` then starts a fresh pool for its next map.  A pool
    runs one map at a time; threads that share an engine serialize its
    maps, as :class:`~repro.api.session.Session` does.
    """

    #: Largest pickled task sent to a worker that is still busy.  A
    #: proof's tasks, one loop each, fit (docs/performance.md); the few
    #: large tasks of other maps go to idle workers only.
    PREFETCH_BYTES = 32 * 1024

    def __init__(self, workers: int) -> None:
        """Start ``workers`` processes by the platform's default method.

        On Linux before Python 3.14 that is ``fork``: a worker starts with
        the parent's modules already imported (and whatever the parent
        patched), so a pool started for one map costs milliseconds.  Under ``spawn`` or ``forkserver`` each worker imports
        the package afresh: the results are the same, but each pool start
        pays an interpreter start per worker.
        """
        import multiprocessing

        context = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        # Stops the workers on close(), or when the pool is dropped unclosed.
        self._stop = weakref.finalize(self, _stop_workers, self._workers)
        self._running = False
        for _ in range(workers):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_worker, args=(theirs,), daemon=True
            )
            process.start()
            theirs.close()
            self._workers.append((process, ours))

    @property
    def closed(self) -> bool:
        return not self._stop.alive

    def close(self) -> None:
        """Stop every worker and wait for it to exit."""
        self._stop()

    def run(
        self, tasks: Sequence[list[Group]], prove: bool = False
    ) -> Iterator[tuple[int, JobResult]]:
        """Yield ``(index, result)`` per job, in the order results land."""
        import selectors
        from multiprocessing.reduction import ForkingPickler

        if self.closed:
            raise RuntimeError("the worker pool is closed")
        if self._running:
            raise RuntimeError("the worker pool is already running a map")
        pending = deque(enumerate(tasks))
        #: Each task is pickled once, when it is first due to be sent.
        payloads: dict[int, memoryview] = {}
        #: Per worker, the results still owed by each task it holds.
        owed: dict["multiprocessing.connection.Connection", deque[int]] = {
            connection: deque() for _process, connection in self._workers
        }

        def dispatch() -> None:
            # Idle workers first, then one task ahead for busy ones.
            for depth in (0, 1):
                for connection, queue in owed.items():
                    if not pending or len(queue) != depth:
                        continue
                    number, task = pending[0]
                    if number not in payloads:
                        payloads[number] = ForkingPickler.dumps((task, prove))
                    if depth and len(payloads[number]) > self.PREFETCH_BYTES:
                        continue
                    try:
                        connection.send_bytes(payloads.pop(number))
                    except OSError:
                        raise WorkerLost("a worker process exited mid-map")
                    pending.popleft()
                    queue.append(sum(len(group) for group in task))

        finished = False
        selector = selectors.DefaultSelector()
        self._running = True
        try:
            for process, connection in self._workers:
                selector.register(connection, selectors.EVENT_READ, connection)
                selector.register(process.sentinel, selectors.EVENT_READ)
            dispatch()
            while any(owed.values()):
                ready = [key.data for key, _events in selector.select()]
                for connection in ready:
                    if connection is None:
                        continue  # a sentinel, handled below
                    try:
                        message = connection.recv()
                    except (EOFError, OSError):
                        raise WorkerLost("a worker process exited mid-map")
                    if isinstance(message, Exception):
                        raise message  # the task's error, from the worker
                    queue = owed[connection]
                    queue[0] -= len(message)
                    if not queue[0]:
                        queue.popleft()
                        dispatch()
                    yield from message
                if None in ready:
                    raise WorkerLost("a worker process exited mid-map")
            finished = True
        finally:
            self._running = False
            selector.close()
            if not finished:
                self.close()


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
    progress: ProgressFn | None = None,
    pool_factory: "Callable[[], WorkerPool | None] | None" = None,
    cached_flags: list[bool] | None = None,
    on_result: ResultFn | None = None,
    prove: bool = False,
) -> list[JobResult]:
    """Execute ``jobs`` and return their results in the same order.

    ``workers=None`` uses one process per core; ``workers=0`` (or a single
    loop group of misses) runs serially in-process.  Cached results are
    never re-dispatched.  Cache misses are grouped per loop, and the
    groups are packed into the tasks of a :class:`WorkerPool`: a proving
    map makes each group a task and streams every point back as it is
    proved; any other map packs its groups into about four tasks per
    worker, each task's results one message (see :func:`_run_task`), so
    a task that fails caches nothing.
    ``pool_factory`` lets a caller lend a long-lived pool: it is invoked
    only once cache misses actually require workers (an all-hits warm run
    must not pay worker startup), and a pool it returns is used without
    being closed.

    ``prove=True`` proves every evaluate job on the walk that produced it
    (see :func:`~repro.engine.jobs.execute_batch`).  A proof must come
    from evaluating this build, so a proving map neither reads nor writes
    ``cache``.

    ``cached_flags``, when given, is filled (in place, one bool per job)
    with each job's provenance: ``True`` for results served without fresh
    computation *for that position* -- cache hits and in-batch duplicates
    -- ``False`` for positions that actually ran the pipeline.  The serve
    front-end's per-request ``cached`` field reads this.  ``on_result``
    and ``progress`` fire per finished position (see :data:`ResultFn`).
    """
    if workers is None:
        workers = default_workers()
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if prove:
        cache = None

    total = len(jobs)
    results: list[JobResult | None] = [None] * total
    if cached_flags is not None:
        # Positions start as "served from cache"; finish() flips the ones
        # that actually computed.  Hits and duplicates stay True.
        cached_flags[:] = [True] * total
    misses: Group = []
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
        index: int,
        job: EvalJob,
        result: JobResult,
        fresh: bool = True,
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

    groups = _group_misses(misses)
    # A one-worker pool would only add IPC overhead; run in-process.
    if workers <= 1 or len(groups) <= 1:
        for group in groups:
            batch = [job for _i, job in group]
            # A map that does not prove makes the one-argument call that
            # wrappers of execute_batch (perfbench's fault injection) take.
            group_results = (
                execute_batch(batch, prove=True)
                if prove
                else execute_batch(batch)
            )
            for (index, job), result in zip(group, group_results):
                finish(index, job, result)
    else:
        # A proof's loops are tasks of their own, so the heavy loops spread
        # over the workers.  Other maps' groups are too cheap to pay a
        # pickled task and a round trip each (docs/performance.md).
        tasks = _tasks(
            groups, 1 if prove else max(1, len(misses) // (workers * 4))
        )
        lent = pool_factory() if pool_factory is not None else None
        pool = lent or WorkerPool(min(workers, len(tasks)))
        try:
            for index, result in pool.run(tasks, prove):
                finish(index, jobs[index], result)
        finally:
            if lent is None:
                pool.close()

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
    _pool: WorkerPool | None = field(default=None, init=False, repr=False)

    def _shared_pool(self) -> WorkerPool | None:
        workers = default_workers() if self.workers is None else self.workers
        if workers <= 1:
            return None
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(workers)
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
            self._pool.close()
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
        progress: ProgressFn | None = None,
        prove: bool = False,
    ) -> list[JobResult]:
        """Execute jobs (cached, pooled) preserving order.

        ``cached_flags``, ``on_result`` and ``prove`` pass straight through
        to :func:`run_jobs` (per-position cache provenance, per-result
        hook, proving map); a per-call ``on_result`` or ``progress``
        replaces the engine's own for this call.
        """
        self.jobs_run += len(jobs)
        return run_jobs(
            jobs,
            workers=self.workers,
            cache=self.cache,
            progress=progress if progress is not None else self.progress,
            pool_factory=self._shared_pool,
            cached_flags=cached_flags,
            on_result=on_result if on_result is not None else self.on_result,
            prove=prove,
        )


def serial_engine() -> Engine:
    """The implicit engine of drivers called without one.

    Serial and memory-cached: identical numbers to direct evaluation, and
    points repeated across its maps are computed once.
    """
    from repro.engine.cache import ResultCache

    return Engine(workers=0, cache=ResultCache(directory=None))


__all__ = [
    "Engine",
    "ProgressFn",
    "ResultFn",
    "WorkerLost",
    "WorkerPool",
    "default_workers",
    "run_jobs",
    "serial_engine",
]
