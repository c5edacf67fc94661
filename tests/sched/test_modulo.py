"""Unit tests for the iterative modulo scheduler."""

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.config import paper_config
from repro.sched.mii import minimum_ii
from repro.sched.modulo import (
    SchedulingFailure,
    _attempt,
    modulo_schedule,
    schedule_loop,
)
from repro.sched.schedule import ScheduleError
from repro.workloads.kernels import all_kernels, example_loop


class TestExampleLoop:
    def test_ii_is_one(self, example_schedule):
        assert example_schedule.ii == 1

    def test_schedule_verifies(self, example_schedule):
        example_schedule.verify()

    def test_paper_issue_times(self, example_schedule):
        """The critical-path issue times of Figure 3 (shifted to t=0)."""
        names = {
            op.name: example_schedule.time_of(op.op_id)
            for op in example_schedule.graph.operations
        }
        base = names["L1"]
        offsets = {n: t - base for n, t in names.items()}
        assert offsets == {
            "L1": 0, "L2": 0, "M3": 1, "A4": 4, "M5": 7, "A6": 10, "S7": 13,
        }

    def test_fourteen_stages(self, example_schedule):
        assert example_schedule.stage_count == 14

    def test_initial_clusters_match_paper(self, example_schedule):
        left = {
            op.name
            for op in example_schedule.graph.operations
            if example_schedule.cluster_of(op.op_id) == 0
        }
        assert left == {"L1", "L2", "M3", "A4"}


class TestGeneralProperties:
    @pytest.mark.parametrize("latency", [3, 6])
    def test_all_kernels_schedule_and_verify(self, latency):
        machine = paper_config(latency)
        for loop in all_kernels():
            schedule = modulo_schedule(loop.graph, machine)
            schedule.verify()

    def test_ii_at_least_mii(self, paper_l6):
        for loop in all_kernels():
            schedule = modulo_schedule(loop.graph, paper_l6)
            assert schedule.ii >= minimum_ii(loop.graph, paper_l6).mii

    def test_min_ii_respected(self, paper_l3):
        loop = example_loop()
        schedule = modulo_schedule(loop.graph, paper_l3, min_ii=5)
        assert schedule.ii >= 5
        schedule.verify()

    def test_max_ii_failure(self, paper_l3):
        b = LoopBuilder()
        vals = [b.load(f"x{i}") for i in range(9)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.store(acc, "y")
        loop = b.build()
        with pytest.raises(SchedulingFailure):
            modulo_schedule(loop.graph, paper_l3, max_ii=2)

    def test_schedule_loop_wrapper(self, paper_l3):
        schedule = schedule_loop(example_loop(), paper_l3)
        schedule.verify()

    def test_recurrence_constrained_loop(self, paper_l6):
        b = LoopBuilder()
        ph = b.placeholder()
        t = b.mul(ph, "a")
        u = b.add(t, b.load("x"))
        b.bind(ph, u, distance=1)
        b.store(u, "y")
        loop = b.build()
        schedule = modulo_schedule(loop.graph, paper_l6)
        assert schedule.ii == 12  # two 6-cycle ops around a distance-1 cycle
        schedule.verify()


class TestResourceBinding:
    def test_no_two_ops_share_unit_row(self, paper_l3):
        for loop in all_kernels()[:10]:
            schedule = modulo_schedule(loop.graph, paper_l3)
            seen = set()
            for op in schedule.graph.operations:
                p = schedule.placement(op.op_id)
                key = (p.time % schedule.ii, p.pool, p.instance)
                assert key not in seen
                seen.add(key)

    def test_kernel_rows_partition_ops(self, example_schedule):
        rows = example_schedule.kernel_rows()
        assert sum(len(r) for r in rows) == len(example_schedule.graph)

    def test_with_instances_swap(self, example_schedule):
        ops = {
            op.name: op.op_id for op in example_schedule.graph.operations
        }
        a4 = example_schedule.placement(ops["A4"])
        a6 = example_schedule.placement(ops["A6"])
        swapped = example_schedule.with_instances(
            {ops["A4"]: a6.instance, ops["A6"]: a4.instance}
        )
        assert swapped.cluster_of(ops["A4"]) == 1
        assert swapped.cluster_of(ops["A6"]) == 0

    def test_with_instances_conflict_rejected(self, example_schedule):
        ops = {op.name: op.op_id for op in example_schedule.graph.operations}
        a6 = example_schedule.placement(ops["A6"])
        with pytest.raises(ScheduleError):
            # Move A4 onto A6's unit without moving A6: same row collision.
            example_schedule.with_instances({ops["A4"]: a6.instance})

    def test_with_instances_out_of_range(self, example_schedule):
        ops = {op.name: op.op_id for op in example_schedule.graph.operations}
        with pytest.raises(ScheduleError):
            example_schedule.with_instances({ops["A4"]: 9})


def memory_bound_graph():
    """Five loads and a store on two memory units: ResMII 3, RecMII 1."""
    b = LoopBuilder("memory_bound")
    total = b.load("a0")
    for k in range(1, 5):
        total = b.add(total, b.load(f"a{k}"))
    b.store(total, "out")
    return b.build().graph


class TestBelowResMII:
    """The IMS window search always finds a free unit at II >= ResMII."""

    def test_attempt_below_res_mii_raises(self, paper_l6):
        graph = memory_bound_graph()
        report = minimum_ii(graph, paper_l6)
        assert (report.res, report.rec) == (3, 1)
        assert _attempt(graph, paper_l6, report.res, 16) is not None
        with pytest.raises(ValueError, match="below ResMII"):
            _attempt(graph, paper_l6, report.res - 1, 16)
