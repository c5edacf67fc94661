"""A dropped chain is freed by reference counting, not by the collector.

:class:`~repro.kernel.batch.LoopChain` nodes never point up: the chain owns
the root, each node owns its children, and nodes read only the chain's
immutable context.  So once a chain is dropped -- at the end of a proof,
of an engine group, or on eviction from a session's chain memo -- its
nodes, arrays, schedules and replayed graphs go at once, and the cyclic
collector finds nothing.  Each test runs its work with the collector
disabled (after a full collection) and then asserts that a collection
finds no unreachable object.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

from repro.bench import LATENCY, bench_grid
from repro.check.coverage import CHECK_MODELS, run_static_validation
from repro.core.swapping import SwapEstimator
from repro.engine.pool import Engine
from repro.kernel.batch import LoopChain
from repro.machine.config import paper_config
from repro.sched.modulo import modulo_schedule
from repro.workloads.suite import perfect_club_like


@contextmanager
def collector_off() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def heavy_loop():
    """The largest loop of a 60-loop suite (its walks spill)."""
    return max(perfect_club_like(60).loops, key=lambda loop: len(loop.graph))


class TestNoCyclicGarbage:
    def test_dropped_chain_after_every_use(self):
        machine = paper_config(LATENCY)
        loop = heavy_loop()
        estimator = SwapEstimator.MAXLIVE
        with collector_off():
            chain = LoopChain(loop.graph, machine)
            chain.pressure(estimator)
            spilled = 0
            for _loop, _machine, model, budget in bench_grid([loop], machine):
                spilled += chain.evaluate(model, budget, estimator).spilled_values
            for model, budget in CHECK_MODELS:
                summary, evaluation = chain.materialize(
                    loop, model, budget, estimator
                )
                evaluation.schedule.verify()
            del chain, summary, evaluation
            assert spilled > 0  # the walks built spill children
            assert gc.collect() == 0

    def test_static_validation(self):
        """On a serial engine: the chains must die in this process."""
        engine = Engine(workers=0, cache=None)
        run_static_validation(n_loops=2, engine=engine)  # first-use caches
        with collector_off():
            result = run_static_validation(n_loops=52, engine=engine)
            assert result.ok, result.format()
            assert gc.collect() == 0

    def test_session_memo_evictions(self):
        from repro.api import EvaluateRequest, LoopSpec, Session
        from repro.engine.jobs import CHAIN_MEMO_SIZE

        n_loops = CHAIN_MEMO_SIZE + 8
        with Session() as session:
            session.evaluate(
                EvaluateRequest(loop=LoopSpec(kind="example"), model="ideal")
            )
            with collector_off():
                for index in range(n_loops):
                    session.evaluate(
                        EvaluateRequest(
                            loop=LoopSpec(
                                kind="suite", index=index, n_loops=n_loops
                            ),
                            model="unified",
                            register_budget=16,
                        )
                    )
                assert len(session.chains) == CHAIN_MEMO_SIZE
                assert gc.collect() == 0

    def test_root_schedule_outlives_its_chain(self):
        machine = paper_config(LATENCY)
        loop = heavy_loop()
        with collector_off():
            schedule = LoopChain(loop.graph, machine).root.schedule
            assert gc.collect() == 0
        schedule.verify()
        assert schedule == modulo_schedule(loop.graph, machine)
