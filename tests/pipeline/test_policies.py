"""Spill-victim policies and II-escalation strategies."""

import pytest

from repro.core.models import Model
from repro.engine.jobs import evaluate_job, execute_batch, execute_job
from repro.kernel import batch as kbatch
from repro.machine.config import paper_config
from repro.pipeline.pipelines import run_evaluation
from repro.pipeline.policies import (
    II_ESCALATIONS,
    SPILL_POLICIES,
    GeometricEscalation,
    IncrementEscalation,
    SpillPolicy,
    first,
    get_escalation,
    get_policy,
    least_traffic,
    longest,
    most_consumers,
    most_registers,
    pick_victim,
    register_policy,
    spillable_values,
)
from repro.regalloc.lifetimes import lifetimes
from repro.sched.modulo import modulo_schedule
from repro.spill.spiller import evaluate_loop
from repro.workloads.kernels import all_kernels, example_loop, make_kernel


@pytest.fixture(scope="module")
def schedule():
    return modulo_schedule(example_loop().graph, paper_config(3))


@pytest.fixture(scope="module")
def lts(schedule):
    return lifetimes(schedule)


class TestRegistry:
    def test_contains_paper_policy_and_alternatives(self):
        assert set(SPILL_POLICIES) >= {
            "longest",
            "most_registers",
            "first",
            "most_consumers",
            "least_traffic",
        }
        assert next(iter(SPILL_POLICIES)) == "longest"

    def test_names_match_keys(self):
        for name, policy in SPILL_POLICIES.items():
            assert policy.name == name
        for name, escalation in II_ESCALATIONS.items():
            assert escalation.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="victim policy"):
            get_policy("nope")

    def test_unknown_escalation_rejected(self):
        with pytest.raises(ValueError, match="escalation"):
            get_escalation("nope")

    def test_register_policy_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(SPILL_POLICIES["longest"])

    def test_registered_key_walks_a_chain_like_the_reference(
        self, paper_l6, monkeypatch
    ):
        """A registered key runs on the production chain, and the chain's
        results equal the straight-line reference's over the kernel
        library."""

        def shortest(length, ii, consumers, op_id):
            return -length

        built = []
        original = kbatch.LoopChain

        def counting(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(kbatch, "LoopChain", counting)
        register_policy(SpillPolicy("shortest_test_only", shortest))
        try:
            kernels = all_kernels()
            spilled = 0
            for loop in kernels:
                jobs = [
                    evaluate_job(
                        loop,
                        paper_l6,
                        model,
                        budget,
                        victim_policy="shortest_test_only",
                    )
                    for model, budget in (
                        (Model.UNIFIED, 24),
                        (Model.PARTITIONED, 12),
                    )
                ]
                served = execute_batch(jobs)
                assert served == [execute_job(job) for job in jobs], loop.name
                spilled += sum(result.spilled_values for result in served)
        finally:
            del SPILL_POLICIES["shortest_test_only"]
        assert built == [loop.graph for loop in kernels]
        assert spilled > 0

    def test_chain_and_reference_give_the_key_the_same_facts(
        self, paper_l6
    ):
        """Both evaluators call a key with identical arguments, state by
        state: op indices on the chain are the graph's op ids."""
        calls = []

        def recording(length, ii, consumers, op_id):
            calls.append((length, ii, tuple(consumers), op_id))
            return length

        loop = make_kernel("state_equation")
        register_policy(SpillPolicy("recording_test_only", recording))
        try:
            chain = evaluate_loop(
                loop,
                paper_l6,
                Model.UNIFIED,
                16,
                victim_policy="recording_test_only",
            )
            on_chain = list(calls)
            calls.clear()
            run_evaluation(
                loop,
                paper_l6,
                Model.UNIFIED,
                16,
                victim_policy="recording_test_only",
            )
        finally:
            del SPILL_POLICIES["recording_test_only"]
        assert chain.spilled_values > 1
        assert on_chain == calls


class TestKeys:
    """The built-in keys over one value: a 7-cycle lifetime at II 3, read
    twice by op 4 at distance 0 and once by op 5 at distance 1."""

    FACTS = (7, 3, [(4, 0), (4, 0), (5, 1)], 2)

    @pytest.mark.parametrize(
        "key, expected",
        [
            pytest.param(key, expected, id=key.__name__)
            for key, expected in (
                (longest, 7),
                (most_registers, 3),
                (first, -2),
                (most_consumers, (3, 7)),
                (least_traffic, (-2, 3)),
            )
        ],
    )
    def test_builtin_key(self, key, expected):
        assert key(*self.FACTS) == expected
        assert SPILL_POLICIES[key.__name__].key is key


class TestSelection:
    def test_every_policy_returns_a_spillable_value(self, schedule, lts):
        candidates = set(spillable_values(schedule.graph))
        for name in SPILL_POLICIES:
            assert pick_victim(schedule, name, lts) in candidates, name

    def test_longest_picks_highest_lifetime(self, schedule, lts):
        victim = pick_victim(schedule, "longest")
        best = max(lts[i].length for i in spillable_values(schedule.graph))
        assert lts[victim].length == best

    def test_first_picks_lowest_id(self, schedule):
        assert pick_victim(schedule, "first") == min(
            spillable_values(schedule.graph)
        )

    def test_most_consumers_maximizes_fanout(self, schedule, lts):
        graph = schedule.graph
        victim = pick_victim(schedule, "most_consumers")
        best = max(
            len(graph.consumers(i)) for i in spillable_values(graph)
        )
        assert len(graph.consumers(victim)) == best

    def test_least_traffic_minimizes_added_ops(self, schedule):
        graph = schedule.graph

        def added(i):
            return 1 + len({(c.op_id, d) for c, d in graph.consumers(i)})

        victim = pick_victim(schedule, "least_traffic")
        assert added(victim) == min(
            added(i) for i in spillable_values(graph)
        )

    def test_policies_deterministic(self, schedule, lts):
        for name in SPILL_POLICIES:
            assert pick_victim(schedule, name, lts) == pick_victim(
                schedule, name
            )

    def test_ties_go_to_the_lowest_op_id(self, schedule):
        def constant(length, ii, consumers, op_id):
            return 0

        register_policy(SpillPolicy("constant_test_only", constant))
        try:
            victim = pick_victim(schedule, "constant_test_only")
        finally:
            del SPILL_POLICIES["constant_test_only"]
        assert victim == min(spillable_values(schedule.graph))

    def test_each_registered_policy_reaches_budget(self, paper_l6):
        """Every policy must drive the spill pipeline to convergence."""
        loop = make_kernel("state_equation")
        for name in SPILL_POLICIES:
            ev = evaluate_loop(
                loop,
                paper_l6,
                Model.UNIFIED,
                register_budget=16,
                victim_policy=name,
            )
            assert ev.fits, name
            assert ev.requirement.registers <= 16, name


class TestEscalation:
    def test_increment_steps_by_one(self):
        esc = IncrementEscalation()
        assert esc.next_ii(7) == 8
        assert not esc.give_up(7)
        assert esc.give_up(8)

    def test_geometric_grows_faster(self):
        esc = GeometricEscalation()
        assert esc.next_ii(1) == 2  # never stalls at small IIs
        assert esc.next_ii(10) == 15
        assert esc.give_up(4)

    def test_an_escalation_that_keeps_the_ii_is_an_error(
        self, paper_l6, monkeypatch
    ):
        class Stuck:
            name = "stuck_test_only"

            def next_ii(self, current_ii):
                return current_ii

            def give_up(self, stale_escalations):
                return False

        monkeypatch.setitem(II_ESCALATIONS, Stuck.name, Stuck())
        loop = make_kernel("state_equation")
        for evaluate in (evaluate_loop, run_evaluation):
            with pytest.raises(ValueError, match="raise the II"):
                evaluate(
                    loop,
                    paper_l6,
                    Model.UNIFIED,
                    16,
                    pressure_strategy="increase_ii",
                    ii_escalation=Stuck.name,
                )

    def test_geometric_selectable_through_evaluate(self, paper_l6):
        loop = make_kernel("state_equation")
        paper = evaluate_loop(
            loop,
            paper_l6,
            Model.UNIFIED,
            register_budget=16,
            pressure_strategy="increase_ii",
        )
        geometric = evaluate_loop(
            loop,
            paper_l6,
            Model.UNIFIED,
            register_budget=16,
            pressure_strategy="increase_ii",
            ii_escalation="geometric",
        )
        # Both converge without spilling; geometric takes no more rounds.
        assert paper.spilled_values == geometric.spilled_values == 0
        assert geometric.ii_increases <= paper.ii_increases
        assert geometric.fits and paper.fits
