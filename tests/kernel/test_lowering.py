"""Lowering correctness: flat arrays mirror the dict-world accessors."""

from __future__ import annotations

from repro import kernel
from repro.ir.builder import LoopBuilder
from repro.machine.config import example_config, paper_config
from repro.workloads.synthetic import generate_loop


def _sample_loop():
    return generate_loop(3)


class TestMachineArrays:
    def test_pools_and_masks(self):
        machine = paper_config(6)
        ma = kernel.lower_machine(machine)
        assert ma.names == tuple(p.name for p in machine.pools)
        for i, name in enumerate(ma.names):
            assert ma.counts[i] == machine.units(name)
            assert ma.full_masks[i] == (1 << machine.units(name)) - 1
            assert ma.cluster_of[i] == tuple(
                machine.cluster_of_instance(name, k)
                for k in range(machine.units(name))
            )
        assert ma.n_clusters == machine.n_clusters

    def test_lowering_is_memoized(self):
        machine = example_config()
        assert kernel.lower_machine(machine) is kernel.lower_machine(machine)


class TestLoopArrays:
    def test_ids_pools_latencies(self):
        loop = _sample_loop()
        machine = paper_config(3)
        la = kernel.lower_loop(loop.graph, machine)
        ops = loop.graph.operations
        assert la.n == len(ops)
        assert la.ids == [op.op_id for op in ops]
        for i, op in enumerate(ops):
            assert la.ma.names[la.pool[i]] == machine.pool_for(op)
            assert la.latency[i] == machine.latency_of(op)
            assert la.defines[i] == op.defines_value

    def test_edges_match_graph_edges(self):
        loop = _sample_loop()
        machine = paper_config(3)
        la = kernel.lower_loop(loop.graph, machine)
        from repro.sched.mii import edge_delay

        expected = [
            (
                la.index[e.src],
                la.index[e.dst],
                edge_delay(e, loop.graph, machine),
                e.distance,
            )
            for e in loop.graph.edges()
        ]
        # Grouped by source op, each op's edges in graph order (a stable
        # sort keeps flow edges before explicit ones).
        assert la.edges() == sorted(expected, key=lambda edge: edge[0])
        for i in range(la.n):
            assert la.in_edges[i] == [
                (src, delay, dist)
                for src, dst, delay, dist in expected
                if dst == i
            ]

    def test_consumer_adjacency_matches_consumers(self):
        loop = _sample_loop()
        machine = paper_config(3)
        la = kernel.lower_loop(loop.graph, machine)
        for v in la.values:
            op_id = la.ids[v]
            expected = [
                (la.index[c.op_id], d)
                for c, d in loop.graph.consumers(op_id)
            ]
            assert la.cons[v] == expected

    def test_cache_hits_and_mutation_invalidation(self):
        machine = paper_config(3)
        builder = LoopBuilder("mutating")
        a = builder.load("x")
        b = builder.add(a, a)
        builder.store(b, "y")
        graph = builder._graph
        first = kernel.lower_loop(graph, machine)
        assert kernel.lower_loop(graph, machine) is first
        c = graph.add_operation  # structural mutation invalidates
        from repro.ir.operation import OpType, ValueRef

        c(OpType.FADD, (ValueRef(b.op_id, 0), ValueRef(b.op_id, 0)))
        second = kernel.lower_loop(graph, machine)
        assert second is not first
        assert second.n == first.n + 1


class TestConsumerMap:
    def test_matches_graph_consumers(self):
        loop = _sample_loop()
        cmap = kernel.consumer_map(loop.graph)
        values = [op for op in loop.graph.operations if op.defines_value]
        assert list(cmap) == [op.op_id for op in values]
        for op in values:
            expected = [
                (c.op_id, d) for c, d in loop.graph.consumers(op.op_id)
            ]
            assert cmap[op.op_id] == expected


class TestLift:
    """The lowered arrays lift back to the dict reference's dataclasses."""

    def test_chain_root_lifts_to_the_reference_schedule(self):
        from repro.kernel.batch import LoopChain
        from repro.regalloc.lifetimes import lifetimes
        from repro.sched.modulo import modulo_schedule

        machine = paper_config(6)
        for index in range(6):
            graph = generate_loop(index).graph
            root = LoopChain(graph, machine).root
            reference = modulo_schedule(graph, machine)
            assert root.schedule == reference
            assert root.lifetimes == lifetimes(reference)
