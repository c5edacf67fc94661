"""The chain memo: a stream of single points == one batch.

Inside :func:`repro.engine.jobs.lent_chains` -- which a
:class:`repro.api.session.Session` wraps around its point requests --
``execute_batch`` keeps each loop group's
:class:`~repro.kernel.batch.LoopChain` across calls, so the serve
front-end's one-point requests walk nodes earlier requests computed.  A chain is a deterministic state machine, so the order in which
points walk it must not show: a shuffled stream of single-job maps over
the kernels' bench grid and hypothesis high-pressure loops returns, point
by point, what one ``run_jobs`` call over the whole grid returns.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import LATENCY, bench_grid
from repro.engine.jobs import evaluate_job, lent_chains
from repro.engine.pool import run_jobs
from repro.ir.loop import Loop
from repro.machine.config import paper_config
from repro.workloads.kernels import all_kernels

from strategies import high_pressure_graphs


@pytest.fixture(scope="module")
def machine():
    return paper_config(LATENCY)


@pytest.fixture(scope="module")
def kernel_jobs(machine):
    return [
        evaluate_job(loop, mach, model, budget)
        for loop, mach, model, budget in bench_grid(all_kernels(), machine)
    ]


@pytest.fixture(scope="module")
def kernel_golden(kernel_jobs):
    return run_jobs(kernel_jobs, workers=0, cache=None)


class TestSinglePointStream:
    @given(
        st.lists(high_pressure_graphs(), min_size=2, max_size=2),
        st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shuffled_stream_equals_run_jobs(
        self, machine, kernel_jobs, kernel_golden, graphs, shuffle_seed
    ):
        loops = [
            Loop(name=f"hyp-{i}", graph=graph, trip_count=50)
            for i, graph in enumerate(graphs)
        ]
        extra = [
            evaluate_job(loop, mach, model, budget)
            for loop, mach, model, budget in bench_grid(loops, machine)
        ]
        jobs = kernel_jobs + extra
        golden = kernel_golden + run_jobs(extra, workers=0, cache=None)
        order = list(range(len(jobs)))
        random.Random(shuffle_seed).shuffle(order)
        chains: dict = {}
        with lent_chains(chains):
            for index in order:
                point = run_jobs([jobs[index]], workers=0, cache=None)
                assert point == [golden[index]], jobs[index]
        assert len(chains) <= len(all_kernels()) + len(loops)
