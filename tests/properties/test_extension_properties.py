"""Property-based tests for the extension modules (n-cluster allocation,
moves)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dualfile import allocate_dual
from repro.core.swapping import greedy_swap
from repro.machine.config import clustered_config, paper_config
from repro.regalloc.firstfit import verify_disjoint
from repro.sched.modulo import modulo_schedule
from repro.workloads.synthetic import generate_loop

loop_indices = st.integers(0, 200)
latencies = st.sampled_from([3, 6])


class TestNClusterProperties:
    @given(loop_indices, st.sampled_from([2, 3, 4]))
    @settings(max_examples=20, deadline=None)
    def test_subfiles_always_disjoint(self, index, n_clusters):
        loop = generate_loop(index)
        machine = clustered_config(n_clusters, fp_latency=6)
        schedule = modulo_schedule(loop.graph, machine)
        alloc = allocate_dual(schedule)
        for cluster in range(n_clusters):
            verify_disjoint(
                alloc.file_allocation(cluster).placements.values()
            )
        # Every value is stored somewhere, and only in consumer clusters.
        for op in schedule.graph.values():
            clusters = alloc.classes.value_clusters[op.op_id]
            assert clusters
            assert clusters <= set(range(n_clusters))

    @given(loop_indices, st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_requirement_is_max_subfile(self, index, n_clusters):
        loop = generate_loop(index)
        machine = clustered_config(n_clusters, fp_latency=3)
        schedule = modulo_schedule(loop.graph, machine)
        alloc = allocate_dual(schedule)
        assert alloc.registers_required == max(
            alloc.cluster_registers(c) for c in range(n_clusters)
        )


class TestMoveProperties:
    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_moves_respect_rows_pools_and_estimate(self, index):
        loop = generate_loop(index)
        schedule = modulo_schedule(loop.graph, paper_config(6))
        result = greedy_swap(schedule, allow_moves=True)
        result.schedule.verify()
        assert result.estimate_after <= result.estimate_before
        for op in schedule.graph.operations:
            before = schedule.placement(op.op_id)
            after = result.schedule.placement(op.op_id)
            assert before.time == after.time
            assert before.pool == after.pool
