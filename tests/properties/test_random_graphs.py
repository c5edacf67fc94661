"""Pipeline properties on fully random (non-calibrated) dependence graphs.

These complement ``test_pipeline_properties`` by sampling the whole space of
valid graph shapes, including degenerate ones the workload generator never
emits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dualfile import allocate_dual, dual_max_live
from repro.core.clustering import scheduler_assignment
from repro.core.swapping import greedy_swap
from repro.ir.validate import validate_graph
from repro.machine.config import paper_config
from repro.regalloc.allocation import allocate_unified
from repro.sched.mii import minimum_ii
from repro.sched.modulo import modulo_schedule
from repro.sim.executor import execute_kernel

from strategies import dependence_graphs

latencies = st.sampled_from([3, 6])


class TestRandomGraphPipeline:
    @given(dependence_graphs(), latencies)
    @settings(max_examples=60, deadline=None)
    def test_generated_graphs_are_valid(self, graph, latency):
        validate_graph(graph)

    @given(dependence_graphs(), latencies)
    @settings(max_examples=40, deadline=None)
    def test_schedule_allocate_verify(self, graph, latency):
        machine = paper_config(latency)
        schedule = modulo_schedule(graph, machine)
        schedule.verify()
        assert schedule.ii >= minimum_ii(graph, machine).mii
        unified = allocate_unified(schedule)
        assert unified.registers_required >= unified.max_live

    @given(dependence_graphs(), latencies)
    @settings(max_examples=30, deadline=None)
    def test_dual_and_swap(self, graph, latency):
        machine = paper_config(latency)
        schedule = modulo_schedule(graph, machine)
        assignment = scheduler_assignment(schedule)
        dual = allocate_dual(schedule, assignment)
        assert dual_max_live(schedule, assignment) <= dual.registers_required
        swap = greedy_swap(schedule)
        assert swap.estimate_after <= swap.estimate_before

    @given(dependence_graphs(max_arith=8), latencies)
    @settings(max_examples=20, deadline=None)
    def test_execution_verifies(self, graph, latency):
        machine = paper_config(latency)
        schedule = modulo_schedule(graph, machine)
        execute_kernel(schedule, allocate_unified(schedule), iterations=4)
        execute_kernel(schedule, allocate_dual(schedule), iterations=4)
